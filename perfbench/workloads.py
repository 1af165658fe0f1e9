"""The four workloads of the talbot-lab benchmark, and their correctness gate.

Each workload is the paper's own computation, run at the configs shipped in
``configs/`` when this benchmark was defined (copied below, so a later change
to ``configs/`` does not silently change what the benchmark measures).  The
benchmark seed replaces the config seed; the program receives only the
generated config files.  A workload is a list of operations; one operation
is one experiment run through the CLI path (report written) or one nested
build.

Why these four, and which layers each exercises or bypasses:

``revivals``  gauss, evolve, claims, in that order.  Rational-time revivals
    checked against direct summation.  Exercises ``expsum`` (Gauss-sum
    table, Abel checks, perturbed sums), ``schrodinger`` with exact integer
    phases (the ``partial_sum_direct`` oracle takes about three quarters of
    the time; ``block_factor_fast``/``quad_block_sum`` the fast path) and
    ``counterexample`` (samples, claims i-iii).  Bypasses ``fractal``.

``packing``   the dimension experiment.  Dense, maximal 1-D greedy packing
    (``fractal.separated_cubes``) and its exact audit take nearly all of the
    time; this is where an O(candidates) packing rewrite shows.  Bypasses
    ``expsum`` and ``schrodinger``.

``kernels``   the maximal experiment.  ``measures``: FFT convolution,
    quadrature and dense maximal evaluation; ``schrodinger`` is used only as
    float kernels through ``dirichlet_kernel_1d``, not through the exact
    rational-time path.  It raises one ill-posed-regime ``ValueError`` on
    purpose.  The only workload with a large working set (peak RSS ~200 MiB),
    so it is where a cached ``fft(weights)`` shows in time and memory.
    Bypasses ``expsum``, ``counterexample`` and ``fractal``.

``nested``    ``build_nested_levels(d=1, tau=2, n1, levels=3)`` then
    ``audit_nesting`` and ``cantor_lower_bound`` for n1 in {256, 512, 1024}.
    The same packing code as ``packing`` in its other use: early-stopping
    (``max_cubes``) scans inside parents narrower than 1/q.  A dense-packing
    gain that slows this path shows here and nowhere else.  ``levels=4`` is
    left out: it did not finish in five minutes.  The seed orders the three
    builds; the builds themselves are deterministic.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Checks that fail by design at the shipped configs (acceptance criteria 10
# and 12).  A failure here is expected; a pass is reported, not counted.
KNOWN_RED = frozenset({"nested_dimension_bound", "convolution_polylog_slope_error"})

SHIPPED_CONFIGS: dict[str, dict[str, str]] = {
    "gauss": {
        "q_max": "2000", "random_r_per_q": "2", "spot_checks": "200",
        "perturbed_q_min": "16", "perturbed_q_max": "1024", "perturbed_dev_const": "5.0",
        "abel_instances": "10000", "tol": "1e-8",
    },
    "evolve": {
        "lam": "16", "alpha": "1.0", "delta": "0.05", "kappa": "1/4", "c1": "1/200",
        "c2": "1/100", "j_max": "4", "samples_per_q": "32", "tol": "1e-9",
    },
    "claims": {
        "lam": "16", "alpha": "1.0", "delta": "0.05", "kappa": "1/4", "c1": "1/200",
        "c2": "1/100", "j_list": "2,3,4", "samples_per_j": "64", "factor_band": "8.0",
        "factor_frac": "0.95", "slope_tol": "0.25", "upper_ratio_cap": "4.0",
        "vdc_mult": "8.0", "decay_factor_cap": "256.0", "decay_c_min_frac": "0.25",
    },
    "dimension": {
        "cov_cases": "1:64:1/8;2/3:343:1/7;1/2:625:1/5;1/3:729:1/3", "cov_j_min": "2",
        "cov_j_max": "6", "cov_tol": "0.05", "sep_beta": "4", "sep_exp_min": "6",
        "sep_exp_max": "12", "sep_slope_tol": "0.2", "nested_n1": "256",
        "nested_levels": "3", "nested_bound_min": "0.8", "ideal_lam": "16",
        "ideal_levels": "4", "ideal_tol": "0.15", "meas_lam": "16", "meas_kappa": "1/64",
        "meas_j_list": "3,4,5", "meas_ratio_band": "4.0",
    },
    "maximal": {
        "cantor_level": "12", "conv_exp_min": "6", "conv_exp_max": "13",
        "conv_slope_tol": "0.08", "l1_exp_min": "4", "l1_exp_max": "16", "l1_band": "2.0",
        "plan_q_max": "64", "plan_grid": "64", "lp_exp_min": "4", "lp_exp_max": "9",
        "sweep_exp_min": "5", "sweep_exp_max": "9", "sweep_band": "2.0",
        "carleson_s": "0.3", "carleson_q": "8",
    },
}

# Smaller sweeps for the self-test only: every layer still runs, in seconds.
TINY_OVERRIDES: dict[str, dict[str, str]] = {
    "gauss": {"q_max": "64", "spot_checks": "20", "perturbed_q_max": "64",
              "abel_instances": "100"},
    "evolve": {"j_max": "2", "samples_per_q": "4"},
    "claims": {"samples_per_j": "16"},
    "dimension": {"sep_exp_max": "8", "nested_n1": "64", "meas_j_list": "3,4"},
    "maximal": {"cantor_level": "9", "conv_exp_max": "9", "l1_exp_max": "8",
                "lp_exp_max": "6", "sweep_exp_max": "7"},
}

NESTED_N1 = (256, 512, 1024)
NESTED_N1_TINY = (64, 128)
NESTED_LEVELS = 3
NESTED_LEVELS_TINY = 2


@dataclass
class OpOutcome:
    """What one operation produced: pass/fail, digest, and notes."""

    name: str
    ok: bool
    digest: str = ""
    notes: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Operation:
    name: str
    experiment: str  # CLI experiment id, or "" for a nested build
    run: Callable[[], OpOutcome]


# Workload name -> the CLI experiments it runs, in order ("nested" runs none).
WORKLOADS: dict[str, tuple[str, ...]] = {
    "revivals": ("gauss", "evolve", "claims"),
    "packing": ("dimension",),
    "kernels": ("maximal",),
    "nested": (),
}


def config_text(experiment: str, seed: int, tiny: bool) -> str:
    values = dict(SHIPPED_CONFIGS[experiment])
    if tiny:
        values.update(TINY_OVERRIDES[experiment])
    values["seed"] = str(seed)
    lines = [f"experiment = {experiment}"] + [f"{k} = {v}" for k, v in values.items()]
    return "\n".join(lines) + "\n"


def _judge_report(name: str, report_path: Path, exit_code: int) -> OpOutcome:
    """Gate one experiment report: every check passes except the known-red ones."""
    if exit_code not in (0, 1) or not report_path.is_file():
        return OpOutcome(name, False, notes=[f"cli exit code {exit_code}, no report"])
    raw = report_path.read_bytes()
    report = json.loads(raw)
    out = OpOutcome(name, True, hashlib.sha256(raw).hexdigest())
    for check in report["checks"]:
        if check["name"] in KNOWN_RED:
            if check["passed"]:
                out.notes.append(f"known-red check {check['name']} passed (reported, not a failure)")
        elif not check["passed"]:
            out.ok = False
            out.notes.append(f"check {check['name']} failed: {check['value']!r} "
                             f"{check['op']} {check['threshold']!r}")
    return out


def _experiment_op(experiment: str, cfg_path: Path, out_dir: Path) -> Operation:
    def run() -> OpOutcome:
        from talbot_lab import cli

        with redirect_stdout(io.StringIO()):
            code = cli.main([experiment, "--config", str(cfg_path), "--out", str(out_dir),
                             "--jobs", "1"])
        return _judge_report(experiment, out_dir / "report.json", code)

    return Operation(experiment, experiment, run)


def plan_digest(families, plan) -> str:
    """sha256 over the plan and every retained cube, exact rationals as text."""
    doc = {
        "d": plan.d, "tau": repr(plan.tau), "levels": plan.levels, "n": list(plan.n),
        "m": list(plan.m), "eps": [repr(e) for e in plan.eps],
        "families": [
            [[list(c.p), c.q, str(c.lo), str(c.hi)] for c in fam] for fam in families
        ],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _nested_op(n1: int, levels: int) -> Operation:
    name = f"nested_n1_{n1}"

    def run() -> OpOutcome:
        from talbot_lab import fractal

        families, plan = fractal.build_nested_levels(1, 2, n1, levels)
        for parents, children in zip(families, families[1:]):
            fractal.audit_nesting(parents, children)
        fractal.cantor_lower_bound(plan)
        out = OpOutcome(name, True, plan_digest(families, plan))
        if min(plan.m) < 2:
            out.ok = False
            out.notes.append(f"plan.m = {plan.m} has a level below 2 children")
        return out

    return Operation(name, "", run)


def prepare(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Operation]:
    """Write the configs of one workload and return its operations, in order."""
    if workload == "nested":
        n1s = list(NESTED_N1_TINY if tiny else NESTED_N1)
        random.Random(seed).shuffle(n1s)
        levels = NESTED_LEVELS_TINY if tiny else NESTED_LEVELS
        return [_nested_op(n1, levels) for n1 in n1s]
    ops = []
    for experiment in WORKLOADS[workload]:
        cfg_path = workdir / f"{experiment}.cfg"
        cfg_path.write_text(config_text(experiment, seed, tiny), encoding="utf-8")
        ops.append(_experiment_op(experiment, cfg_path, workdir / experiment))
    return ops
