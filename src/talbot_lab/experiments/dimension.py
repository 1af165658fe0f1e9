"""Experiment `dimension`: covering exponents, packings, nested construction."""

from __future__ import annotations

from ..counterexample import CounterexampleParams
from ..fractal import (
    ROOT_CUBE,
    audit_nesting,
    audit_separated_family,
    build_nested_levels,
    cantor_lower_bound,
    level_cube_count,
    level_volume_lower_bound,
    idealized_plan,
    separated_cubes,
)
from ..measures import exponent_fit
from .config import covering_cases
from .report import RunReport, Sweep


def run(cfg: dict, jobs: int) -> RunReport:
    report = RunReport("dimension", cfg)

    # covering exponents of the generation families, one case per alpha
    worst_cov = 0.0
    cov_rows = []
    for alpha, lam, kappa in covering_cases(cfg["cov_cases"]):
        params = CounterexampleParams(
            d=1, alpha=float(alpha), lam=lam, delta=0.01, kappa=float(kappa)
        )
        # ln(count) against j ln(lam): the covering exponent of the generation sequence
        slope = exponent_fit([
            (float(lam) ** j, level_cube_count(params, j))
            for j in range(cfg["cov_j_min"], cfg["cov_j_max"] + 1)
        ]).slope
        err = abs(slope - float(alpha))
        worst_cov = max(worst_cov, err)
        cov_rows.append([float(alpha), slope, float(lam)])
    report.add_check("covering_exponent_worst_error", worst_cov, cfg["cov_tol"], "<=")
    report.sweeps.append(Sweep("covering_exponent", ["alpha", "fitted_exponent", "lam"], cov_rows))

    # separated-cube packing counts inside the root cube [1/8, 1/4]
    beta = cfg["sep_beta"]
    pts = []
    for e in range(cfg["sep_exp_min"], cfg["sep_exp_max"] + 1):
        n = 2**e
        fam = separated_cubes(ROOT_CUBE, n, 2, beta=beta)
        audit_separated_family(ROOT_CUBE, fam, 2)
        pts.append((float(n), float(len(fam))))
    fit = exponent_fit(pts)
    report.add_check(
        "packing_count_slope_error", abs(fit.slope - 2.0), cfg["sep_slope_tol"], "<="
    )
    report.sweeps.append(
        Sweep(
            "packing_counts",
            ["n", "count"],
            [[s, v] for s, v in pts],
            fit=fit,
        )
    )

    # nested construction and the mass-distribution bound
    families, plan = build_nested_levels(1, 2, cfg["nested_n1"], cfg["nested_levels"])
    for parents, children in zip(families, families[1:]):
        audit_nesting(parents, children)
    constructed = cantor_lower_bound(plan)
    report.add_check(
        "nested_min_children", min(plan.m), 2, ">="
    )
    report.add_check("nested_dimension_bound", constructed, cfg["nested_bound_min"], ">=")
    report.sweeps.append(
        Sweep(
            "nested_plan",
            ["level", "n", "m", "eps"],
            [[float(k + 1), float(plan.n[k]), float(plan.m[k]), plan.eps[k]] for k in range(plan.levels)],
        )
    )

    ideal = cantor_lower_bound(idealized_plan(1, cfg["ideal_lam"], 2.0, cfg["ideal_levels"]))
    report.add_check(
        "idealized_bound_relative_error", abs(ideal - 1.0), cfg["ideal_tol"], "<="
    )

    # volume lower bound at alpha = d
    params = CounterexampleParams(
        d=1,
        alpha=1.0,
        lam=cfg["meas_lam"],
        delta=0.05,
        kappa=float(cfg["meas_kappa"]),
    )
    values = []
    for j in cfg["meas_j_list"]:
        values.append((j, level_volume_lower_bound(params, j)))
    report.add_check("volume_bound_min", min(v for _, v in values), 1e-12, ">=")
    band = cfg["meas_ratio_band"]
    ratios = [b / a for (_, a), (_, b) in zip(values, values[1:])]
    report.add_check("volume_bound_ratio_max", max(ratios), band, "<=")
    report.add_check("volume_bound_ratio_min", min(ratios), 1.0 / band, ">=")
    report.sweeps.append(
        Sweep("volume_bound", ["j", "lower_bound"], [[float(j), v] for j, v in values])
    )
    return report
