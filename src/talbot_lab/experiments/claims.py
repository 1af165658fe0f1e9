"""Experiment `claims`: the three magnitude claims of the blow-up datum."""

from __future__ import annotations

import math

import numpy as np

from ..counterexample import (
    CounterexampleParams,
    claim_regime,
    sample_points,
    time_set,
    verify_claim_i,
    verify_claim_ii,
    verify_claim_iii,
)
from ..expsum import vdc_first_derivative_bound
from ..measures import exponent_fit
from .config import counterexample_params
from .report import RunReport, Sweep


def _level_samples(params, j, total, seed):
    """Spread `total` samples over the admissible times of level j."""
    times = time_set(params, j)
    per = max(1, -(-total // len(times)))
    out = []
    for t in times:
        out += sample_points(params, j, t, per, seed + t.q)
        if len(out) >= total:
            break
    return out[:total]


def _require_claim2_regimes(params: CounterexampleParams, j_list) -> None:
    """Raise ValueError unless some pair k < j of j_list falls in the upper
    regime and some in the first-derivative regime: a claim (ii) check over
    no pair would pass on zero samples."""
    regimes = {claim_regime(params, j, k) for j in j_list for k in range(1, j)}
    for regime in ("upper", "first_derivative"):
        if regime not in regimes:
            raise ValueError(
                f"no pair k < j of j_list = {list(j_list)} falls in the {regime} regime "
                f"at alpha = {params.alpha}, delta = {params.delta}; its claim (ii) check "
                "would pass on zero samples"
            )


def run(cfg: dict, jobs: int) -> RunReport:
    report = RunReport("claims", cfg)
    params = counterexample_params(cfg)
    lam = float(params.lam)
    seed = cfg["seed"]
    j_list = cfg["j_list"]
    band = cfg["factor_band"]
    _require_claim2_regimes(params, j_list)

    # claim (i): coherent growth at the sample level
    inside = 0
    total = 0
    growth_pts = []
    ratio_rows = []
    for j in j_list:
        samples = _level_samples(params, j, cfg["samples_per_j"], seed + 17 * j)
        rep = verify_claim_i(params, j, samples)
        fr = rep.factor_ratios
        total += fr.size
        inside += int(np.count_nonzero((1.0 / band <= fr) & (fr <= band)))
        ratio_rows.append([float(j), rep.ratio_geomean, rep.ratio_min, rep.ratio_max])
        # matched top-of-window samples pin the growth slope
        top = time_set(params, j)[-1]
        matched = sample_points(params, j, top, 16, seed + 31 * j)
        rep_top = verify_claim_i(params, j, matched)
        growth_pts.append(
            (lam**j, rep_top.ratio_geomean * lam ** (j * params.delta))
        )
    frac = inside / total if total else 0.0
    report.add_check("claim1_factor_band_fraction", frac, cfg["factor_frac"], ">=")
    fit = exponent_fit(growth_pts)
    report.add_check(
        "claim1_growth_slope_relative_error",
        abs(fit.slope - params.delta) / params.delta,
        cfg["slope_tol"],
        "<=",
    )
    report.sweeps.append(
        Sweep(
            "claim1_growth",
            ["lam_pow_j", "geomean_magnitude"],
            [[s, v] for s, v in growth_pts],
            fit=fit,
        )
    )
    report.sweeps.append(
        Sweep("claim1_ratios", ["j", "ratio_geomean", "ratio_min", "ratio_max"], ratio_rows)
    )

    # claim (ii): levels below j, split by regime
    upper_max = 0.0
    vdc_max = 0.0
    vdc_cap = cfg["vdc_mult"] * vdc_first_derivative_bound(1.0 / 8.0)
    for j in j_list:
        samples = _level_samples(params, j, 16, seed + 53 * j)
        for k in range(1, j):
            rep = verify_claim_ii(params, j, k, samples)
            if rep.regime == "upper":
                upper_max = max(upper_max, rep.ratio_max)
            elif rep.regime == "first_derivative":
                vdc_max = max(vdc_max, float(rep.factor_mags.max()))
    report.add_check("claim2_upper_ratio_max", upper_max, cfg["upper_ratio_cap"], "<=")
    report.add_check("claim2_vdc_factor_max", vdc_max, vdc_cap, "<=")

    # claim (iii): levels above j, incoherent decay
    factor_max = 0.0
    c_fits = []
    decay_rows = []
    for j in j_list[:-1]:
        samples = _level_samples(params, j, 8, seed + 71 * j)
        per_k = {}
        for k in (j + 1, j + 2):
            lo, hi = params.lam ** (k - 1), params.lam**k
            n_list = [lo, (lo + hi) // 2, hi - 1]
            rep = verify_claim_iii(params, j, k, samples, n_list)
            factor_max = max(factor_max, float(rep.factor_ratios.max()))
            mags = [math.log(v) for v in np.maximum(rep.values, 1e-300)]
            per_k[k] = math.exp(float(np.mean(mags)))
            decay_rows.append([float(k), per_k[k], float(j)])
        c_fits.append(
            (math.log(per_k[j + 1]) - math.log(per_k[j + 2])) / math.log(lam)
        )
    report.add_check("claim3_factor_ratio_max", factor_max, cfg["decay_factor_cap"], "<=")
    report.add_check(
        "claim3_fitted_decay_rate",
        min(c_fits),
        cfg["decay_c_min_frac"] * params.s_alpha,
        ">=",
    )
    report.sweeps.append(Sweep("claim3_decay", ["k", "geomean_magnitude", "j"], decay_rows))
    return report
