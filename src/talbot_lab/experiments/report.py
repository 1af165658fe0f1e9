"""Run reports: deterministic JSON, CSV sweeps, and plot-ready data."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .. import __version__

_FLOAT_FMT = "%.16e"  # 17 significant digits: round-trip exact for doubles


@dataclass(frozen=True)
class Check:
    """One pass/fail outcome: `value op threshold`."""

    name: str
    value: float
    threshold: float
    op: str  # one of <=, >=, ==

    @property
    def passed(self) -> bool:
        if self.op == "<=":
            return self.value <= self.threshold
        if self.op == ">=":
            return self.value >= self.threshold
        if self.op == "==":
            return self.value == self.threshold
        raise ValueError(f"unknown check operator {self.op!r}")


@dataclass
class Sweep:
    """Tabular sweep output; first two columns are (scale, value) for plots."""

    name: str
    columns: list[str]
    rows: list[list[float]]
    fit: dict | None = None  # {"slope":, "intercept":, "polylog": False}: a plain power law


@dataclass
class GoldenDiff:
    name: str
    golden: float
    actual: float

    @property
    def rel_diff(self) -> float:
        scale = max(abs(self.golden), 1e-300)
        return abs(self.actual - self.golden) / scale


@dataclass
class RunReport:
    experiment: str
    config: dict
    checks: list[Check] = field(default_factory=list)
    sweeps: list[Sweep] = field(default_factory=list)
    golden_diffs: list[GoldenDiff] = field(default_factory=list)

    def add_check(self, name: str, value: float, threshold: float, op: str) -> Check:
        check = Check(name, float(value), float(threshold), op)
        if any(c.name == name for c in self.checks):
            raise ValueError(f"duplicate check name {name!r}")
        self.checks.append(check)
        return check

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "version": __version__,
            "config": self.config,
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "op": c.op,
                    "threshold": c.threshold,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
            "golden_diffs": [
                {"name": g.name, "golden": g.golden, "actual": g.actual, "rel_diff": g.rel_diff}
                for g in self.golden_diffs
            ],
            "sweeps": [
                {"name": s.name, "columns": s.columns, "rows": s.rows, "fit": s.fit}
                for s in self.sweeps
            ],
            "all_passed": self.all_passed(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1) + "\n"


def _fmt_cell(value: float) -> str:
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer() and abs(value) < 1e15):
        return str(int(value))
    return _FLOAT_FMT % value


def write_report(report: RunReport, out_dir: str | Path) -> list[Path]:
    """Write report.json plus one CSV per sweep; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    report_path = out / "report.json"
    report_path.write_text(report.to_json(), encoding="utf-8")
    paths.append(report_path)
    for sweep in report.sweeps:
        path = out / f"sweep_{sweep.name}.csv"
        lines = [",".join(sweep.columns)]
        lines += [",".join(_fmt_cell(v) for v in row) for row in sweep.rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def emit_plotdata(report: RunReport, out_dir: str | Path) -> list[Path]:
    """Two-column (scale, value) text files per sweep, plus fit lines.

    Byte-stable across reruns with the same config; refuses reports
    without sweeps.
    """
    if not report.sweeps:
        raise ValueError("report carries no sweeps; nothing to plot")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for sweep in report.sweeps:
        if not sweep.rows:
            continue
        path = out / f"plot_{sweep.name}.dat"
        lines = [f"{_FLOAT_FMT % row[0]} {_FLOAT_FMT % row[1]}" for row in sweep.rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
        if sweep.fit is not None:
            slope = sweep.fit["slope"]
            intercept = sweep.fit["intercept"]
            fit_path = out / f"plot_{sweep.name}_fit.dat"
            fit_lines = []
            for row in sweep.rows:
                scale = row[0]
                model = math.exp(intercept) * scale**slope
                fit_lines.append(f"{_FLOAT_FMT % scale} {_FLOAT_FMT % model}")
            fit_path.write_text("\n".join(fit_lines) + "\n", encoding="utf-8")
            paths.append(fit_path)
    return paths
