"""Experiment `evolve`: fast block evolution against direct summation."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from ..counterexample import sample_points, time_set
from ..schrodinger import DirichletBlock, evolve_rational_fast, partial_sum_direct
from .config import counterexample_params
from .report import RunReport, Sweep


def _worst_error_at_time(args) -> tuple[int, int, float]:
    params, j, t, data, count, seed = args
    block = DirichletBlock(1, params.lam, j)
    n = params.lam**j
    worst = 0.0
    xs = sample_points(params, j, t, count, seed)
    for x, direct in zip(xs, partial_sum_direct(data, n, t, xs).tolist()):
        fast = evolve_rational_fast(block, t, x)
        err = abs(fast - direct) / max(1.0, abs(direct))
        worst = max(worst, err)
    return j, t.q, worst


def run(cfg: dict, jobs: int) -> RunReport:
    report = RunReport("evolve", cfg)
    params = counterexample_params(cfg)
    tasks = []
    seed = cfg["seed"]
    for j in range(1, cfg["j_max"] + 1):
        data = DirichletBlock(1, params.lam, j).to_fourier_data()
        for t in time_set(params, j):
            tasks.append((params, j, t, data, cfg["samples_per_q"], seed + 1000 * j + t.q))
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_worst_error_at_time, tasks))
    else:
        results = [_worst_error_at_time(t) for t in tasks]
    rows = [[float(q), err, float(j)] for j, q, err in results]
    worst = max(err for _, _, err in results)
    report.sweeps.append(Sweep("fast_vs_direct", ["q", "relative_error", "j"], rows))
    report.add_check("fast_vs_direct_worst_relative_error", worst, cfg["tol"], "<=")
    return report
