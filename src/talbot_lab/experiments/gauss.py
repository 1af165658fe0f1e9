"""Experiment `gauss`: closed-form audit, perturbed sums, summation by parts."""

from __future__ import annotations

import math

import numpy as np

from .. import goldens
from ..expsum import (
    abel_bound_check,
    gauss_sum_magnitudes,
    gauss_sum_table,
    perturbed_gauss_sum_check,
    quadratic_sum,
)
from .report import GoldenDiff, RunReport, Sweep


def _coprime_sample(rng: np.random.Generator, q: int, count: int) -> list[int]:
    out = []
    while len(out) < count:
        r = int(rng.integers(1, q)) if q > 1 else 1
        if math.gcd(r, q) == 1:
            out.append(r)
    return out


def run(cfg: dict, jobs: int = 1) -> RunReport:
    report = RunReport("gauss", {})
    rng = np.random.default_rng(cfg["seed"])
    q_max = int(cfg["q_max"])
    tol = float(cfg["tol"])

    mismatches = 0
    worst_rows = []
    worst_overall = 0.0
    for q in range(1, q_max + 1):
        rs = {1, q - 1 if q > 1 else 1}
        rs.update(_coprime_sample(rng, q, int(cfg["random_r_per_q"])))
        scale = max(1.0, math.sqrt(2.0 * q))
        q_worst = 0.0
        for r in sorted(rs):
            err = np.abs(np.abs(gauss_sum_table(q, r)) - gauss_sum_magnitudes(q, r))
            q_worst = max(q_worst, float(err.max()))
            mismatches += int((err > tol * scale).sum())
        worst_overall = max(worst_overall, q_worst / scale)
        if q % 100 == 0 or q == q_max:
            worst_rows.append([float(q), q_worst / scale])
    report.add_check("closed_form_mismatches", mismatches, 0, "==")
    report.add_check("closed_form_worst_relative_error", worst_overall, tol, "<=")
    report.sweeps.append(
        Sweep("closed_form_error", ["q", "worst_relative_error"], worst_rows)
    )

    # the table path is a fast DFT of the very sums quadratic_sum adds term
    # by term; keep them honest against each other on a random sample
    spot_worst = 0.0
    for _ in range(int(cfg["spot_checks"])):
        q = int(rng.integers(1, min(q_max, 512) + 1))
        r = _coprime_sample(rng, q, 1)[0]
        p = int(rng.integers(0, q))
        direct = quadratic_sum(r, p, q, 0.0, 0, q - 1)
        table = gauss_sum_table(q, r)[p]
        spot_worst = max(spot_worst, abs(direct - table) / max(1.0, math.sqrt(2 * q)))
    report.add_check("table_vs_bruteforce_spot", spot_worst, 1e-10, "<=")

    # perturbed complete sums: deviation against C sqrt(q)(q|e| + q^2 e^2)
    violations = 0
    dev_rows = []
    c_dev = float(cfg["perturbed_dev_const"])
    for q in range(int(cfg["perturbed_q_min"]), int(cfg["perturbed_q_max"]) + 1, 4):
        for p in (0, 2, 2 * (q // 8), q // 2 - (q // 2) % 2):
            for scale in (0.25, 0.5, 1.0):
                for sign in (1.0, -1.0):
                    eps = sign * scale * 0.1 / q * 0.999
                    mag, dev = perturbed_gauss_sum_check(q, p, eps)
                    bound = c_dev * math.sqrt(q) * (q * abs(eps) + (q * eps) ** 2)
                    if dev > bound:
                        violations += 1
        dev_rows.append([float(q), dev])
    report.add_check("perturbed_deviation_violations", violations, 0, "==")
    report.sweeps.append(Sweep("perturbed_deviation", ["q", "deviation_at_top_eps"], dev_rows))
    mag64, dev64 = perturbed_gauss_sum_check(64, 16, 1e-4)
    report.golden_diffs.append(
        GoldenDiff("perturbed_64_16_deviation", goldens.PERTURBED_64_16_DEVIATION, dev64)
    )

    # randomized summation-by-parts instances: the inequality is exact
    abel_violations = 0
    for _ in range(int(cfg["abel_instances"])):
        n = int(rng.integers(2, 65))
        a = np.sort(rng.uniform(0.0, 4.0, size=n))
        if rng.integers(0, 2):
            a = a[::-1]
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        result = abel_bound_check(a, b)
        abel_violations += not result.holds
    report.add_check("abel_violations", abel_violations, 0, "==")
    return report
