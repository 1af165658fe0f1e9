"""Experiment `maximal`: kernel growth, measure convolutions, weighted norms."""

from __future__ import annotations

import math

import numpy as np

from .. import goldens
from ..measures import (
    AtomicMeasure,
    TimeSamplingPlan,
    cantor_measure,
    carleson_l2_ratio,
    convolve_dirichlet_sup,
    dirichlet_l1,
    exponent_fit,
    frostman_constant,
    illposed_dimension,
    maximal_lp_norm,
    transfer_regularity,
    transference_ratio,
    uniform_measure,
)
from ..schrodinger import FourierData, RationalTime
from .report import GoldenDiff, RunReport, Sweep


def _dirichlet_datum(n: int) -> FourierData:
    ks = np.arange(-n, n + 1, dtype=np.int64).reshape(-1, 1)
    return FourierData(1, ks, np.ones(ks.shape[0], dtype=complex))


def run(cfg: dict, jobs: int) -> RunReport:
    report = RunReport("maximal", cfg)
    level = cfg["cantor_level"]
    mu = cantor_measure(1.0 / 3.0, level)
    alpha = mu.alpha

    # measure-convolution growth exponent on the atom-aligned grid
    grid = 2 * 3**level
    ns = [2**e for e in range(cfg["conv_exp_min"], cfg["conv_exp_max"] + 1)]
    conv_pts = [(float(n), v) for n, v in zip(ns, convolve_dirichlet_sup(mu, ns, grid))]
    fit_plain = exponent_fit(conv_pts)
    fit_poly = exponent_fit(conv_pts, polylog=True)
    target = 1.0 - alpha
    report.add_check(
        "convolution_polylog_slope_error",
        abs(fit_poly.slope - target),
        cfg["conv_slope_tol"],
        "<=",
    )
    report.golden_diffs.append(
        GoldenDiff("convolution_plain_slope", target, fit_plain.slope)
    )
    report.sweeps.append(
        Sweep(
            "convolution_growth",
            ["n", "sup_value"],
            [[s, v] for s, v in conv_pts],
            fit=fit_plain,
        )
    )

    # kernel integral: value / ln N in a factor-2 band, maximal >= plain
    plain_band, max_band = [], []
    l1_rows = []
    dominance_ok = 1.0
    for e in range(cfg["l1_exp_min"], cfg["l1_exp_max"] + 1):
        n = 2**e
        plain, maxi = dirichlet_l1(n)
        dominance_ok = min(dominance_ok, float(maxi >= plain))
        plain_band.append(plain / math.log(n))
        max_band.append(maxi / math.log(n))
        l1_rows.append([float(n), plain, maxi])
    report.add_check("l1_plain_band", max(plain_band) / min(plain_band), cfg["l1_band"], "<=")
    report.add_check("l1_maximal_band", max(max_band) / min(max_band), cfg["l1_band"], "<=")
    report.add_check("l1_maximal_dominates", dominance_ok, 1.0, ">=")
    report.golden_diffs.append(
        GoldenDiff("l1_bandwidth_one", goldens.DIRICHLET_L1_N1, dirichlet_l1(1)[0])
    )
    report.sweeps.append(Sweep("kernel_l1", ["n", "plain", "maximal"], l1_rows))

    # weighted maximal norm of the full-band datum against uniform weight
    plan = TimeSamplingPlan(q_max=cfg["plan_q_max"], grid=cfg["plan_grid"])
    mu_uniform = uniform_measure(512)
    lp_exponent = transfer_regularity(1, mu_uniform.alpha, 6.0) + 0.01
    lp_ratios = []
    lp_rows = []
    for e in range(cfg["lp_exp_min"], cfg["lp_exp_max"] + 1):
        n = 2**e
        f = _dirichlet_datum(n)
        value = maximal_lp_norm(f, mu_uniform, 6.0, plan)
        ratio = value / (n**lp_exponent * f.l2())
        lp_ratios.append(ratio)
        lp_rows.append([float(n), ratio, value])
    report.add_check(
        "maximal_lp_ratio_band",
        max(lp_ratios) / float(np.median(lp_ratios)),
        cfg["sweep_band"],
        "<=",
    )
    report.sweeps.append(Sweep("maximal_lp", ["n", "ratio", "norm"], lp_rows))

    # transfer to the fractal weight and the truncation-maximal ratio
    s_transfer = transfer_regularity(1, alpha, 6.0) + 0.05
    s_carleson = cfg["carleson_s"]
    t_fixed = RationalTime(cfg["carleson_q"])
    trans, carl = [], []
    trans_rows, carl_rows = [], []
    for e in range(cfg["sweep_exp_min"], cfg["sweep_exp_max"] + 1):
        n = 2**e
        f = _dirichlet_datum(n)
        tr = transference_ratio(f, mu, 6.0, s_transfer, plan)
        cr = carleson_l2_ratio(f, mu, s_carleson, [2**i for i in range(1, e + 1)], t_fixed)
        trans.append(tr)
        carl.append(cr)
        trans_rows.append([float(n), tr])
        carl_rows.append([float(n), cr])
    band = cfg["sweep_band"]
    report.add_check("transference_max_over_median", max(trans) / float(np.median(trans)), band, "<=")
    report.add_check("carleson_max_over_median", max(carl) / float(np.median(carl)), band, "<=")
    report.sweeps.append(Sweep("transference", ["n", "ratio"], trans_rows))
    report.sweeps.append(Sweep("carleson", ["n", "ratio"], carl_rows))

    # the ill-posed weighted regime must be rejected: the Cantor atoms
    # labelled with a dimension just below 1 - 2s
    illposed = AtomicMeasure(1, mu.positions, mu.masses, illposed_dimension(1, s_carleson) - 0.01)
    rejected = 0.0
    try:
        carleson_l2_ratio(_dirichlet_datum(16), illposed, s_carleson, [4, 8, 16], t_fixed)
    except ValueError:
        rejected = 1.0
    report.add_check("illposed_regime_rejected", rejected, 1.0, ">=")

    report.golden_diffs.append(
        GoldenDiff(
            "middle_thirds_frostman",
            goldens.MIDDLE_THIRDS_FROSTMAN,
            frostman_constant(mu, [2 * math.pi * 3.0 ** (-m) for m in range(1, level + 1)]),
        )
    )
    return report
