"""Spans around the public functions of the five talbot-lab layers.

The tracer patches every public function of ``expsum``, ``schrodinger``,
``counterexample``, ``fractal`` and ``measures`` in each ``talbot_lab``
module that holds a reference to it (the defining module and every module
that imported the name), so calls between layers and calls from the
experiments both pass through a span.  Nothing inside the program changes;
``restore`` puts the original functions back.

A span is (run id, span id, parent id, name, start, end).  Spans stay in
memory and are written out when the traced pass ends.  A layer's self time
is its span durations minus the part covered by child spans.  Work counts are
computed from each call's inputs and result, after the span has ended; the
time spent computing them is charged to neither the span nor its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

LAYERS = ("expsum", "schrodinger", "counterexample", "fractal", "measures")


def _fft_eligible(mu, x_grid) -> bool:
    """Integer grid with every atom on it: the inputs of the FFT path."""
    if not isinstance(x_grid, (int, np.integer)) or mu.d != 1:
        return False
    m = int(x_grid)
    scaled = mu.positions[:, 0] / (2.0 * math.pi) * m
    return bool(np.max(np.abs(scaled - np.rint(scaled))) < 1e-9)


def _admissible_anchors_1d(c, n: int, beta, margin) -> int:
    """Anchors (p, q) with q in [n/beta, n] and p/q in the margin-shrunk cube, exactly."""
    lo = c.lo_corner(0) + margin
    hi = c.hi_corner(0) - margin
    q_lo = int(math.ceil(n / float(beta) - 1e-9))
    total = 0
    for q in range(q_lo, n + 1):
        first = -((-q * lo.numerator) // lo.denominator)
        last = (q * hi.numerator) // hi.denominator
        total += max(0, last - first + 1)
    return total


class Tracer:
    """Patch the layer functions, record spans and per-function statistics."""

    def __init__(self, run_id: str) -> None:
        from talbot_lab.schrodinger import block_split

        self._block_split = block_split
        self.originals: dict[str, Callable] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"talbot_lab.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self.originals[f"{layer}.{attr}"] = obj
        self.counters: dict[str, Callable] = {
            "expsum.gauss_sum_table": lambda res, q, r: {"terms": q},
            "expsum.perturbed_gauss_sum_value": lambda res, q, p, eps: {"terms": q},
            "schrodinger.partial_sum_direct": self._partial_sum_terms,
            "schrodinger.block_factor_fast": self._block_factor_terms,
            "schrodinger.quad_block_sum": lambda res, a, b, q, p, eps: {"terms": max(0, b - a + 1)},
            "schrodinger.dirichlet_kernel_1d": lambda res, n, x: {"points": int(np.size(x))},
            "counterexample.sample_points": lambda res, *a, **k: {"samples": len(res)},
            "fractal.separated_cubes": self._separated_counts,
            "fractal.audit_separated_family": lambda res, c, family, tau: {"cubes": len(family)},
            "measures.convolve_dirichlet_sup": self._convolve_counts,
            "measures.maximal_lp_norm": lambda res, f, mu, p, plan: {
                "macs": mu.n_atoms * f.nnz * len(plan.times())},
        }
        self.spans: list[tuple] = []
        self.run_id = run_id
        self._stack: list[int] = []
        self._child_time: dict[int, float] = {}
        self._patched: list[tuple[object, str, Callable]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.raised: dict[str, int] = defaultdict(int)
        self.work: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    # -- work counts -------------------------------------------------------
    @staticmethod
    def _partial_sum_terms(res, f, n, t, x):
        if f.bandwidth > n:
            return {"terms": int(np.count_nonzero((np.abs(f.ks) <= n).all(axis=1)))}
        return {"terms": f.nnz}

    def _block_factor_terms(self, res, lam, j, t, p, eps, n_hi=None):
        a, b, _, _ = self._block_split(lam, j, t.q, n_hi)
        return {"terms": max(0, b - a + 1)}

    @staticmethod
    def _separated_counts(res, c, n, tau, beta=4, max_cubes=None):
        out = {"accepted": len(res)}
        if max_cubes is None and c.d == 1:
            out["accepted_maximal"] = len(res)
            out["admissible"] = _admissible_anchors_1d(c, n, beta, res.meta["margin"])
        return out

    @staticmethod
    def _convolve_counts(res, mu, n, x_grid, maximal=False):
        grid_points = int(x_grid) if isinstance(x_grid, (int, np.integer)) else int(np.size(x_grid))
        return {"grid_points": grid_points, "fft_path": int(_fft_eligible(mu, x_grid))}

    # -- spans -------------------------------------------------------------
    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called name; returns fn's result."""
        parent = self._stack[-1] if self._stack else -1
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id; filled in when the span ends
        self._child_time[sid] = 0.0
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.raised[name] += 1
            raise
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (self.run_id, sid, parent, name, t0, t1)
            self.calls[name] += 1
            self.total_s[name] += t1 - t0
            self.self_s[name] += (t1 - t0) - self._child_time.pop(sid)
            if parent >= 0:
                self._child_time[parent] += t1 - t0
        counter = self.counters.get(name)
        if counter is not None:
            for key, value in counter(result, *args, **kwargs).items():
                self.work[name][key] += value
            if parent >= 0:
                # counting is tracing overhead, not the parent's own work
                self._child_time[parent] += time.perf_counter() - t1
        return result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Replace each layer function in every talbot_lab module holding it."""
        by_id = {id(fn): self._wrap(name, fn) for name, fn in self.originals.items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "talbot_lab" or mod_name.startswith("talbot_lab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = by_id.get(id(obj))
                if hit is not None:
                    setattr(mod, attr, hit)
                    self._patched.append((mod, attr, obj))

    def restore(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for run_id, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"run": run_id, "id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
