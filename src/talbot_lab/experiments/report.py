"""Run reports and every file a run writes.

write_report is the one writer: report.json, then per sweep its CSV, its
two-column plot data and, for a fitted sweep, the fitted model line.  The
CLI and the byte-identity gate both call it, so the gate checks the bytes
users get.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

from .. import __version__
from ..measures import ExponentFit

_FLOAT_FMT = "%.16e"  # 17 significant digits: round-trip exact for doubles

_CHECK_OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Check:
    """One pass/fail outcome: `value op threshold`."""

    name: str
    value: float
    threshold: float
    op: str  # a key of _CHECK_OPS

    def __post_init__(self) -> None:
        if self.op not in _CHECK_OPS:
            raise ValueError(f"unknown check operator {self.op!r}")

    @property
    def passed(self) -> bool:
        return _CHECK_OPS[self.op](self.value, self.threshold)


@dataclass
class Sweep:
    """Tabular sweep output; first two columns are (scale, value) for plots."""

    name: str
    columns: list[str]
    rows: list[list[float]]
    fit: ExponentFit | None = None  # a plain power law, fitted without the polylog term


@dataclass
class GoldenDiff:
    name: str
    golden: float
    actual: float

    @property
    def rel_diff(self) -> float:
        scale = max(abs(self.golden), 1e-300)
        return abs(self.actual - self.golden) / scale


def config_for_json(cfg: dict[str, object]) -> dict[str, object]:
    """Echoable form: exact rationals as strings, tuples as lists."""
    out = {}
    for key, value in sorted(cfg.items()):
        if isinstance(value, Fraction):
            out[key] = f"{value.numerator}/{value.denominator}"
        elif isinstance(value, tuple):
            out[key] = list(value)
        else:
            out[key] = value
    return out


@dataclass
class RunReport:
    experiment: str
    config: dict  # the typed config the runner ran; echoed through config_for_json
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
            "config": config_for_json(self.config),
            "checks": [{**asdict(c), "passed": c.passed} for c in self.checks],
            "golden_diffs": [{**asdict(g), "rel_diff": g.rel_diff} for g in self.golden_diffs],
            "sweeps": [
                {
                    "name": s.name,
                    "columns": s.columns,
                    "rows": s.rows,
                    "fit": None if s.fit is None else {
                        "slope": s.fit.slope, "intercept": s.fit.intercept, "polylog": False
                    },
                }
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


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report(report: RunReport, out_dir: str | Path) -> None:
    """Write every file of a run into out_dir, byte-stable for a fixed config.

    report.json, then for each sweep sweep_<name>.csv and, if it has rows,
    the two-column (scale, value) plot_<name>.dat, plus plot_<name>_fit.dat
    of the fitted power law if it has a fit.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    for sweep in report.sweeps:
        _write_lines(
            out / f"sweep_{sweep.name}.csv",
            [",".join(sweep.columns)] + [",".join(_fmt_cell(v) for v in row) for row in sweep.rows],
        )
        if not sweep.rows:
            continue
        _write_lines(
            out / f"plot_{sweep.name}.dat",
            [f"{_FLOAT_FMT % row[0]} {_FLOAT_FMT % row[1]}" for row in sweep.rows],
        )
        if sweep.fit is not None:
            amplitude = math.exp(sweep.fit.intercept)
            _write_lines(
                out / f"plot_{sweep.name}_fit.dat",
                [f"{_FLOAT_FMT % row[0]} {_FLOAT_FMT % (amplitude * row[0]**sweep.fit.slope)}"
                 for row in sweep.rows],
            )
