"""Atomic fractal measures and kernel-convolution experiments.

Frostman-constant estimation for finitely supported measures, Dirichlet
kernel L^1 growth and measure convolutions (plain and maximal variants),
weighted maximal norms of the truncated flow, and log-log exponent fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .schrodinger import TAU, FourierData, RationalTime, dirichlet_kernel_1d, sobolev_norm

_ATOM_CAP = 1 << 22


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported positive measure on the torus [0, 2 pi)^d."""

    d: int
    positions: np.ndarray
    masses: np.ndarray
    alpha: float
    normalization: str = "probability"

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float).reshape(-1, self.d) % TAU
        mas = np.asarray(self.masses, dtype=float).reshape(-1)
        if pos.shape[0] != mas.shape[0]:
            raise ValueError("positions and masses differ in length")
        if pos.shape[0] == 0:
            raise ValueError("measure needs at least one atom")
        if np.any(mas <= 0):
            raise ValueError("masses must be positive")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", mas)

    @property
    def n_atoms(self) -> int:
        return int(self.masses.size)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def scaled(self, factor: float) -> "AtomicMeasure":
        return AtomicMeasure(self.d, self.positions, self.masses * factor,
                             self.alpha, "mass")


@dataclass(frozen=True)
class FrostmanEstimate:
    value: float
    radii: tuple[float, ...]
    argmax: tuple[tuple[float, ...], float]


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of ln(value) against ln(scale)."""

    samples: tuple[tuple[float, float], ...]
    slope: float
    intercept: float
    residual: float
    polylog: bool = False


def exponent_fit(samples: Sequence[tuple[float, float]], polylog: bool = False) -> ExponentFit:
    """Fit ln(value) = intercept + slope * ln(scale).

    With polylog set, ln(ln(scale)) is subtracted from ln(value) first,
    absorbing a single logarithmic factor.  Residual is the RMS misfit.
    """
    pts = [(float(s), float(v)) for s, v in samples]
    if len(pts) < 3:
        raise ValueError("need at least 3 samples for an exponent fit")
    scales = np.array([s for s, _ in pts])
    values = np.array([v for _, v in pts])
    if np.any(values <= 0) or np.any(scales <= 0):
        raise ValueError("scales and values must be positive")
    if polylog and np.any(scales <= 1):
        raise ValueError("polylog correction needs scales > 1")
    x = np.log(scales)
    y = np.log(values)
    if polylog:
        y = y - np.log(np.log(scales))
    a = np.vstack([np.ones_like(x), x]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    fitted = a @ coef
    res = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return ExponentFit(tuple(pts), float(coef[1]), float(coef[0]), res, polylog)


def cantor_measure(d: int, ratio: float, level: int) -> AtomicMeasure:
    """Level-L approximation of the self-similar two-branch Cantor measure.

    Each coordinate carries 2^L atoms of equal mass placed at the centers
    of the level-L construction intervals with contraction `ratio`; the
    similarity dimension is d ln2 / ln(1/ratio).
    """
    if not 0 < ratio < 0.5:
        raise ValueError(f"contraction ratio must be in (0, 1/2), got {ratio}")
    if level < 0 or level > 24:
        raise ValueError(f"level must be in [0, 24], got {level}")
    if (1 << (d * level)) > _ATOM_CAP:
        raise ValueError(f"atom count 2^{d * level} above cap {_ATOM_CAP}")
    pts = np.zeros(1)
    width = 1.0
    for _ in range(level):
        pts = np.concatenate([pts, pts + width * (1.0 - ratio)])
        width *= ratio
    axis = (pts + width / 2.0) * TAU
    if d == 1:
        pos = axis.reshape(-1, 1)
    else:
        grids = np.meshgrid(*([axis] * d), indexing="ij")
        pos = np.stack([g.ravel() for g in grids], axis=1)
    masses = np.full(pos.shape[0], 1.0 / pos.shape[0])
    alpha = d * math.log(2) / math.log(1.0 / ratio)
    return AtomicMeasure(d, pos, masses, alpha)


def uniform_measure(n: int, d: int = 1) -> AtomicMeasure:
    """n^d equally spaced atoms of equal mass: the grid surrogate of the
    normalized Lebesgue measure."""
    if n < 1:
        raise ValueError("need at least one atom per coordinate")
    axis = TAU * np.arange(n) / n
    if d == 1:
        pos = axis.reshape(-1, 1)
    else:
        grids = np.meshgrid(*([axis] * d), indexing="ij")
        pos = np.stack([g.ravel() for g in grids], axis=1)
    return AtomicMeasure(d, pos, np.full(pos.shape[0], 1.0 / pos.shape[0]), float(d))


def _ball_masses_1d(mu: AtomicMeasure, centers: np.ndarray, r: float) -> np.ndarray:
    """Mass of closed balls [c - r, c + r] on the circle, for all centers."""
    order = np.argsort(mu.positions[:, 0], kind="stable")
    pos = mu.positions[order, 0]
    cum = np.concatenate([[0.0], np.cumsum(mu.masses[order])])
    total = cum[-1]
    if 2 * r >= TAU:
        return np.full(centers.size, total)
    eps = 1e-12
    lo = (centers - r - eps) % TAU
    hi = (centers + r + eps) % TAU
    lo_i = np.searchsorted(pos, lo, side="left")
    hi_i = np.searchsorted(pos, hi, side="right")
    wrap = lo > hi
    out = np.where(wrap, (total - cum[lo_i]) + cum[hi_i], cum[hi_i] - cum[lo_i])
    return out


def frostman_constant(
    mu: AtomicMeasure, alpha: float, radii: Sequence[float]
) -> FrostmanEstimate:
    """Estimate sup over centers and radii of mu(B(x, r)) / r^alpha.

    Balls are closed sup-norm balls; candidate centers are the atom
    positions, which attain the grid supremum for atomic measures.
    """
    radii = tuple(float(r) for r in radii)
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("radius grid must be nonempty and positive")
    best = -1.0
    best_arg = (tuple(mu.positions[0]), radii[0])
    for r in radii:
        if mu.d == 1:
            masses = _ball_masses_1d(mu, mu.positions[:, 0], r)
        else:
            masses = np.empty(mu.n_atoms)
            for i in range(mu.n_atoms):
                delta = np.abs(mu.positions - mu.positions[i])
                delta = np.minimum(delta, TAU - delta)
                inside = (delta <= r + 1e-12).all(axis=1)
                masses[i] = mu.masses[inside].sum()
        ratios = masses / r**alpha
        i = int(np.argmax(ratios))
        if ratios[i] > best:
            best = float(ratios[i])
            best_arg = (tuple(mu.positions[i]), r)
    return FrostmanEstimate(best, radii, best_arg)


def dirichlet_abs_max_envelope(n: int, x: np.ndarray) -> np.ndarray:
    """Tight upper envelope of sup over M <= N of |d_M(x)|.

    Uses min(2N+1, 1/|sin(x/2)|), which dominates every |d_M| and matches
    the true supremum up to a bounded factor; combined with |d_N| itself so
    the maximal variant dominates the plain kernel pointwise.
    """
    s = np.abs(np.sin(np.asarray(x, dtype=float) / 2.0))
    cap = float(2 * n + 1)
    with np.errstate(divide="ignore"):
        env = np.where(s > 1.0 / cap, 1.0 / np.maximum(s, 1e-300), cap)
    env = np.minimum(env, cap)
    plain = np.abs(dirichlet_kernel_1d(n, x))
    return np.maximum(env, plain)


def _uniform_grid(m: int) -> np.ndarray:
    return TAU * np.arange(m) / m


def convolve_dirichlet_sup(
    mu: AtomicMeasure,
    n: int,
    x_grid: np.ndarray | int,
    maximal: bool = False,
) -> float:
    """Max over the grid of sum over atoms of mass * |D_N(x - y)|.

    With maximal set, the kernel is replaced by the pointwise upper
    envelope of sup over M <= N of |D_M|.  One-dimensional only; when the
    grid is uniform and every atom sits on it, the convolution is computed
    by a circular FFT, otherwise by direct chunked evaluation.
    The grid must resolve the kernel oscillation: spacing <= 1/(10 N).
    """
    if mu.d != 1:
        raise ValueError("grid convolution is implemented for d = 1")
    grid = _uniform_grid(int(x_grid)) if isinstance(x_grid, (int, np.integer)) else np.asarray(x_grid, dtype=float)
    if grid.size < 2:
        raise ValueError("grid must contain at least two points")
    ordered = np.sort(grid % TAU)
    spacing = float(max(np.diff(ordered).max(), TAU - ordered[-1] + ordered[0]))
    if spacing > 1.0 / (10.0 * n) + 1e-15:
        raise ValueError(
            f"grid spacing {spacing:.3g} under-resolves the kernel scale 1/(10N)={1/(10*n):.3g}"
        )
    kernel = dirichlet_abs_max_envelope if maximal else (lambda nn, xx: np.abs(dirichlet_kernel_1d(nn, xx)))

    m = grid.size
    uniform = np.allclose(grid, _uniform_grid(m), atol=1e-9 / m)
    pos = mu.positions[:, 0]
    if uniform:
        idx = np.rint(pos / TAU * m).astype(np.int64) % m
        on_grid = np.max(np.abs(pos - TAU * idx / m)) < 1e-9 * TAU / m
        if on_grid:
            weights = np.zeros(m)
            np.add.at(weights, idx, mu.masses)
            kern = kernel(n, _uniform_grid(m))
            conv = np.fft.ifft(np.fft.fft(weights) * np.fft.fft(kern)).real
            return float(conv.max())
    # direct fallback, chunked over the grid
    best = 0.0
    chunk = max(1, (1 << 22) // max(mu.n_atoms, 1))
    for start in range(0, m, chunk):
        g = grid[start : start + chunk]
        diff = g[:, None] - pos[None, :]
        vals = kernel(n, diff.ravel()).reshape(diff.shape)
        best = max(best, float((vals * mu.masses[None, :]).sum(axis=1).max()))
    return best


def dirichlet_l1(n: int, maximal: bool = False, d: int = 1, num_points: int | None = None) -> float:
    """Quadrature of the torus integral of |D_N| (or its maximal envelope).

    Composite Simpson on a uniform grid that oversamples the kernel
    oscillation by a factor ~20; both variants share the same grid, so the
    maximal value dominates the plain one exactly.  The d-dimensional value
    is the 1-d integral raised to the d-th power.  Accuracy is limited by
    the kernel's |.| kinks: against an 8x refined grid the default stays
    within 2e-4 relative across N <= 2^16 (documented error control);
    raise num_points where more is needed.
    """
    if n < 1:
        raise ValueError(f"bandwidth must be >= 1, got {n}")
    m = num_points if num_points is not None else max(40 * n, 2000)
    m += m % 2  # Simpson needs an even interval count
    x = TAU * np.arange(m + 1) / m
    f = dirichlet_abs_max_envelope(n, x) if maximal else np.abs(dirichlet_kernel_1d(n, x))
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    val = float((w * f).sum() * (TAU / m) / 3.0)
    return val**d


@dataclass(frozen=True)
class TimeSamplingPlan:
    """Finite surrogate for the time supremum over (0, t_max).

    Combines reciprocal times 2 pi / q (where rational-time resonances
    concentrate) with a uniform grid; both parts are recorded in reports.
    """

    q_max: int = 64
    grid: int = 64
    t_max: float = 1.0

    def times(self) -> list[float]:
        out = [TAU / q for q in range(int(math.ceil(TAU / self.t_max)), self.q_max + 1)]
        out += [self.t_max * i / self.grid for i in range(1, self.grid + 1)]
        return out

    def describe(self) -> str:
        return f"reciprocal q<={self.q_max} + uniform {self.grid} on (0,{self.t_max}]"


def _maximal_values_at_atoms(f: FourierData, mu: AtomicMeasure, times: Sequence[float]) -> np.ndarray:
    """max over times of |S_N(t)f| at every atom, N = bandwidth of f."""
    ks, coeffs = f.ks, f.coeffs
    ksq = (ks * ks).sum(axis=1).astype(float)
    best = np.zeros(mu.n_atoms)
    chunk = max(1, (1 << 23) // max(ks.shape[0], 1))
    for start in range(0, mu.n_atoms, chunk):
        pos = mu.positions[start : start + chunk]
        ex = np.exp(1j * (pos @ ks.T.astype(float)))  # (chunk, nk) once
        for t in times:
            vals = np.abs(ex @ (coeffs * np.exp(-1j * ksq * t)))
            np.maximum(best[start : start + chunk], vals, out=best[start : start + chunk])
    return best


def maximal_lp_norm(
    f: FourierData,
    mu: AtomicMeasure,
    p: float,
    plan: TimeSamplingPlan,
) -> float:
    """(sum over atoms of mass * (max over sampled t of |S_N(t)f|)^p)^(1/p)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    times = plan.times()
    if not times:
        raise ValueError("time sampling plan is empty")
    best = _maximal_values_at_atoms(f, mu, times)
    return float((mu.masses * best**p).sum() ** (1.0 / p))


DEFAULT_FROSTMAN_RADII = tuple(2.0 ** (-m) * TAU for m in range(1, 13))


def transference_ratio(
    f: FourierData,
    mu: AtomicMeasure,
    p: float,
    s: float,
    alpha: float,
    plan: TimeSamplingPlan,
    radii: Sequence[float] = DEFAULT_FROSTMAN_RADII,
) -> float:
    """Weighted maximal norm over c_alpha(mu)^(1/p) * H^s norm of the datum.

    Requires s > (d - alpha)/p + d/(d+2), the regularity at which the
    Lebesgue-measure maximal bound transfers to alpha-dimensional weights.
    """
    d = f.d
    s_min = (d - alpha) / p + d / (d + 2.0)
    if s <= s_min:
        raise ValueError(f"need s > {s_min:.4f} for the transfer, got s={s}")
    num = maximal_lp_norm(f, mu, p, plan)
    if num == 0.0:
        return 0.0
    den = frostman_constant(mu, alpha, radii).value ** (1.0 / p) * sobolev_norm(f, s)
    if den == 0.0:
        raise ValueError("zero denominator with nonzero maximal norm")
    return num / den


def carleson_l2_ratio(
    f: FourierData,
    mu: AtomicMeasure,
    s: float,
    alpha: float,
    n_trunc_set: Sequence[int],
    t: RationalTime | float,
    eps: float = 0.05,
    radii: Sequence[float] = DEFAULT_FROSTMAN_RADII,
) -> float:
    """Weighted L^2 norm of the truncation-maximal flow against its scaling.

    Returns ||max over M in the set, M <= N of |S_M(t)f| ||_{L^2(d mu)}
    divided by sqrt(c_alpha) * N^((d-alpha)/2 + eps) * ||f||_2 at a fixed
    sampled time.  Rejects alpha <= d - 2s, where the weighted problem is
    ill posed.
    """
    d = f.d
    if not 0 < s <= d / 2:
        raise ValueError(f"s must lie in (0, d/2], got {s}")
    if alpha <= d - 2 * s:
        raise ValueError(
            f"alpha={alpha} is in the ill-posed regime alpha <= d - 2s = {d - 2 * s}"
        )
    n = f.bandwidth
    truncs = sorted({int(m) for m in n_trunc_set if int(m) <= n})
    if not truncs:
        raise ValueError("no truncation levels at or below the bandwidth")
    best = np.zeros(mu.n_atoms)
    for m in truncs:
        ks, coeffs = f.ks, f.coeffs
        keep = (np.abs(ks) <= m).all(axis=1)
        ks, coeffs = ks[keep], coeffs[keep]
        if ks.shape[0] == 0:
            continue
        ksq = (ks * ks).sum(axis=1).astype(float)
        tt = t.t if isinstance(t, RationalTime) else float(t)
        vals = np.abs(np.exp(1j * (mu.positions @ ks.T.astype(float) - ksq[None, :] * tt)) @ coeffs)
        np.maximum(best, vals, out=best)
    num = float(np.sqrt((mu.masses * best**2).sum()))
    den = (
        math.sqrt(frostman_constant(mu, alpha, radii).value)
        * n ** ((d - alpha) / 2.0 + eps)
        * f.l2()
    )
    if den == 0.0:
        raise ValueError("zero denominator")
    return num / den
