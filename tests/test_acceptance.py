"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one pass/fail line.  Two criteria are known-red at desk
scale and are asserted faithfully anyway; the analysis lives in the
project notes:

 * criterion 10 (constructed nested plan >= 0.8): the finite-level
   mass-distribution bound of any desk-computable construction tops out
   far below 0.8 (the first-level child count would need to exceed ~2^17
   with certified expansion under every child);
 * criterion 12 (polylog-corrected convolution slope): the measured
   supremum grows like N^(1-alpha) with no logarithmic factor, so
   subtracting ln ln N biases the fitted slope below the stated band
   (the uncorrected slope lands well inside it).
"""

import hashlib
import json
import math
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from talbot_lab.counterexample import CounterexampleParams
from talbot_lab.experiments import RUNNERS
from talbot_lab.experiments.config import covering_cases, load_config
from talbot_lab.experiments.report import write_report
from talbot_lab.fractal import level_cube_count
from talbot_lab.measures import exponent_fit

# Each numbered acceptance criterion is executable by exactly one experiment.
CRITERION_TO_EXPERIMENT = {
    1: "gauss",
    2: "evolve",
    3: "claims",
    4: "claims",
    5: "claims",
    6: "gauss",
    7: "gauss",
    8: "dimension",
    9: "dimension",
    10: "dimension",
    11: "dimension",
    12: "maximal",
    13: "maximal",
    14: "maximal",
}


def _run(name):
    cfg = load_config(name, None)
    start = time.monotonic()
    report = RUNNERS[name](cfg, jobs=1)
    elapsed = time.monotonic() - start
    return report, elapsed


@pytest.fixture(scope="module")
def gauss_run():
    return _run("gauss")


@pytest.fixture(scope="module")
def evolve_run():
    return _run("evolve")


@pytest.fixture(scope="module")
def claims_run():
    return _run("claims")


@pytest.fixture(scope="module")
def dimension_run():
    return _run("dimension")


@pytest.fixture(scope="module")
def maximal_run():
    return _run("maximal")


def _check(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise KeyError(f"check {name!r} missing from {report.experiment} report")


def test_every_criterion_has_exactly_one_runner():
    assert sorted(CRITERION_TO_EXPERIMENT) == list(range(1, 15))
    assert set(CRITERION_TO_EXPERIMENT.values()) == set(RUNNERS)


def _emit(num, ok, detail):
    experiment = CRITERION_TO_EXPERIMENT[num]
    print(f"ACCEPTANCE {num:2d} [{experiment}]: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_01_gauss_closed_form(gauss_run):
    report, elapsed = gauss_run
    mism = _check(report, "closed_form_mismatches")
    worst = _check(report, "closed_form_worst_relative_error")
    spot = _check(report, "table_vs_bruteforce_spot")
    ok = mism.passed and worst.passed and spot.passed and elapsed <= 30.0
    assert _emit(
        1, ok,
        f"q<=2000 mismatches={int(mism.value)}, worst rel err={worst.value:.2e} "
        f"(tol 1e-8), runtime {elapsed:.1f}s <= 30s",
    )


def test_criterion_02_fast_vs_direct(evolve_run):
    report, elapsed = evolve_run
    worst = _check(report, "fast_vs_direct_worst_relative_error")
    ok = worst.passed and elapsed <= 60.0
    assert _emit(
        2, ok,
        f"all windows j<=4, 32 samples per q: worst rel err={worst.value:.2e} "
        f"(tol 1e-9), runtime {elapsed:.1f}s <= 60s",
    )


def test_criterion_03_growth_claim(claims_run):
    report, _ = claims_run
    band = _check(report, "claim1_factor_band_fraction")
    slope = _check(report, "claim1_growth_slope_relative_error")
    ok = band.passed and slope.passed
    assert _emit(
        3, ok,
        f"factor ratios in [1/8,8] on {band.value:.1%} of samples (need >=95%), "
        f"growth-slope rel err {slope.value:.1%} (tol 25%)",
    )


def test_criterion_04_control_below(claims_run):
    report, _ = claims_run
    upper = _check(report, "claim2_upper_ratio_max")
    vdc = _check(report, "claim2_vdc_factor_max")
    ok = upper.passed and vdc.passed
    assert _emit(
        4, ok,
        f"upper-regime ratio max {upper.value:.3f} <= frozen {upper.threshold}, "
        f"derivative-test factor max {vdc.value:.2f} <= {vdc.threshold} (zero violations)",
    )


def test_criterion_05_decay_above(claims_run):
    report, _ = claims_run
    cap = _check(report, "claim3_factor_ratio_max")
    rate = _check(report, "claim3_fitted_decay_rate")
    ok = cap.passed and rate.passed
    assert _emit(
        5, ok,
        f"incoherent factor ratio max {cap.value:.1f} <= frozen {cap.threshold}, "
        f"fitted decay c={rate.value:.3f} >= s_alpha/4={rate.threshold}",
    )


def test_criterion_06_perturbed_sums(gauss_run):
    report, _ = gauss_run
    check = _check(report, "perturbed_deviation_violations")
    assert _emit(
        6, check.passed,
        f"q in 16..1024 (mult of 4), |eps| q <= 1/10 grid: "
        f"{int(check.value)} violations of 5 sqrt(q)(q|e| + q^2 e^2)",
    )


def test_criterion_07_summation_by_parts(gauss_run):
    report, _ = gauss_run
    check = _check(report, "abel_violations")
    assert _emit(
        7, check.passed,
        f"10^4 random monotone instances: {int(check.value)} violations beyond 1e-10 slack",
    )


def test_criterion_08_covering_exponent(dimension_run):
    report, _ = dimension_run
    check = _check(report, "covering_exponent_worst_error")
    # re-time the run's counting sweep alone against the stated budget
    cfg = load_config("dimension", None)
    cases = covering_cases(cfg["cov_cases"])
    levels = range(int(cfg["cov_j_min"]), int(cfg["cov_j_max"]) + 1)
    start = time.monotonic()
    for alpha, lam, kappa in cases:
        params = CounterexampleParams(
            d=1, alpha=float(alpha), lam=lam, delta=0.01, kappa=float(kappa)
        )
        exponent_fit([(float(lam) ** j, level_cube_count(params, j)) for j in levels])
    elapsed = time.monotonic() - start
    ok = check.passed and elapsed <= 10.0
    assert _emit(
        8, ok,
        f"alpha in {{{','.join(str(alpha) for alpha, _, _ in cases)}}}, "
        f"j={levels[0]}..{levels[-1]}: "
        f"worst exponent error {check.value:.3f} "
        f"(tol 0.05), counting runtime {elapsed:.1f}s <= 10s",
    )


def test_criterion_09_packing_scaling(dimension_run):
    report, _ = dimension_run
    check = _check(report, "packing_count_slope_error")
    # structural audits run inside the experiment and raise on violation
    assert _emit(
        9, check.passed,
        f"beta=4, n=2^6..2^12: slope error {check.value:.3f} (tol 0.2); exact "
        f"containment/separation audits passed",
    )


def test_criterion_10_mass_distribution_bound(dimension_run):
    report, _ = dimension_run
    ideal = _check(report, "idealized_bound_relative_error")
    constructed = _check(report, "nested_dimension_bound")
    ok = ideal.passed and constructed.passed
    _emit(
        10, ok,
        f"idealized K=4 error {ideal.value:.3f} (tol 0.15); constructed K=3 bound "
        f"{constructed.value:.3f} vs required 0.8 (known red: see notes)",
    )
    assert ideal.passed
    assert constructed.passed, (
        f"constructed-plan bound {constructed.value:.3f} < 0.8: desk-scale "
        f"constructions cannot reach the stated threshold (see decisions ledger)"
    )


def test_criterion_11_positive_volume(dimension_run):
    report, _ = dimension_run
    pos = _check(report, "volume_bound_min")
    hi = _check(report, "volume_bound_ratio_max")
    lo = _check(report, "volume_bound_ratio_min")
    ok = pos.passed and hi.passed and lo.passed
    assert _emit(
        11, ok,
        f"j in {{3,4,5}}: min bound {pos.value:.2e} > 0, consecutive ratios in "
        f"[{lo.value:.3f}, {hi.value:.3f}] within [1/4, 4]",
    )


def test_criterion_12_convolution_exponent(maximal_run):
    report, elapsed = maximal_run
    check = _check(report, "convolution_polylog_slope_error")
    plain = next(g for g in report.golden_diffs if g.name == "convolution_plain_slope")
    ok = check.passed and elapsed <= 300.0
    _emit(
        12, ok,
        f"polylog-corrected slope error {check.value:.3f} vs tol 0.08 "
        f"(uncorrected slope {plain.actual:.3f} vs target {plain.golden:.3f}; known red: see notes), "
        f"runtime {elapsed:.1f}s <= 300s",
    )
    assert elapsed <= 300.0
    assert check.passed, (
        f"polylog-corrected slope misses the band by {check.value - check.threshold:.3f}: "
        f"the measured supremum carries no logarithmic factor (see decisions ledger); "
        f"the uncorrected slope {plain.actual:.3f} matches the target {plain.golden:.3f}"
    )


def test_criterion_13_kernel_l1_band(maximal_run):
    report, _ = maximal_run
    plain = _check(report, "l1_plain_band")
    maxi = _check(report, "l1_maximal_band")
    dom = _check(report, "l1_maximal_dominates")
    ok = plain.passed and maxi.passed and dom.passed
    assert _emit(
        13, ok,
        f"N=2^4..2^16: value/lnN band ratios plain {plain.value:.2f}, maximal "
        f"{maxi.value:.2f} (<= 2), maximal >= plain exactly",
    )


def test_criterion_14_transfer_sweeps(maximal_run):
    report, _ = maximal_run
    tr = _check(report, "transference_max_over_median")
    ca = _check(report, "carleson_max_over_median")
    rej = _check(report, "illposed_regime_rejected")
    ok = tr.passed and ca.passed and rej.passed
    assert _emit(
        14, ok,
        f"N=2^5..2^9: transference max/median {tr.value:.3f}, truncation-maximal "
        f"max/median {ca.value:.3f} (<= 2); ill-posed regime rejected",
    )


DIGESTS = Path(__file__).resolve().parent / "digests.json"


def _toolchain():
    libc, version = platform.libc_ver()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "libc": f"{libc} {version}"}


def test_default_outputs_match_digest_manifest(
    gauss_run, evolve_run, claims_run, dimension_run, maximal_run, tmp_path
):
    """Every file the five default runs write, run_timing.txt excepted, keeps
    the sha256 in tests/digests.json, which holds the output of
    `talbot-lab <experiment> --config configs/<experiment>.cfg --out <experiment>`.
    The fixtures run the schema defaults, which those configs equal
    (test_shipped_config_loads_to_the_defaults checks it).  The float bits
    depend on Python, numpy and libc, so on another toolchain the test skips
    and its reason names both toolchains."""
    manifest = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if manifest["toolchain"] != _toolchain():
        pytest.skip(f"digests recorded under {manifest['toolchain']}, running {_toolchain()}")
    runs = {"gauss": gauss_run, "evolve": evolve_run, "claims": claims_run,
            "dimension": dimension_run, "maximal": maximal_run}
    for name, (report, _) in runs.items():
        write_report(report, tmp_path / name)
    actual = {path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
              for path in tmp_path.rglob("*") if path.is_file()}
    expected = manifest["files"]
    differ = sorted(f for f in expected.keys() | actual.keys() if expected.get(f) != actual.get(f))
    assert differ == [], {f: (expected.get(f), actual.get(f)) for f in differ}
