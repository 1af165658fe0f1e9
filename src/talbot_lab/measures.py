"""Atomic fractal measures and kernel-convolution experiments.

Frostman-constant estimation for finitely supported measures, Dirichlet
kernel L^1 growth and the FFT measure convolution, weighted maximal norms
of the truncated flow, and log-log exponent fits.  Cantor measures, Frostman
quotients, the convolution and the kernel integrals are one-dimensional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .expsum import _integers
from .schrodinger import TAU, FourierData, RationalTime, dirichlet_kernel_1d, sobolev_norm

_ATOM_CAP = 1 << 22

# Points of the convolution grid: a real grid and two half spectra of this
# length are 384 MiB, and 2 * 3^L stays below it for Cantor levels L <= 14.
GRID_CAP = 1 << 24

# Complex entries in one atom block's exponential in the dense maximal
# evaluators: 2^16 entries are 1 MiB, so a block stays in a 2 MiB per-core
# L2 cache while every time (or truncation) reuses it.  The Dirichlet grids
# are streamed in blocks of as many points.
_BLOCK_ENTRIES = 1 << 16

# Exponent slack of the truncation-maximal scaling N^((d - alpha)/2 + eps).
_CARLESON_EPS = 0.05


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finitely supported positive measure on the torus [0, 2 pi)^d.

    positions and masses are read-only copies of the inputs, so the cached
    c_alpha stays true to them, and measures compare by identity.
    """

    d: int
    positions: np.ndarray
    masses: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float).reshape(-1, self.d) % TAU
        mas = np.array(self.masses, dtype=float).reshape(-1)
        if pos.shape[0] != mas.shape[0]:
            raise ValueError("positions and masses differ in length")
        if pos.shape[0] == 0:
            raise ValueError("measure needs at least one atom")
        if np.any(mas <= 0):
            raise ValueError("masses must be positive")
        for name, column in (("positions", pos), ("masses", mas)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def n_atoms(self) -> int:
        return int(self.masses.size)

    @cached_property
    def c_alpha(self) -> float:
        """Frostman constant at the measure's own alpha over
        DEFAULT_FROSTMAN_RADII, computed on first use and kept."""
        return frostman_constant(self, DEFAULT_FROSTMAN_RADII)


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of ln(value) against ln(scale)."""

    slope: float
    intercept: float
    residual: float


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
    return ExponentFit(float(coef[1]), float(coef[0]), res)


def cantor_measure(ratio: float, level: int) -> AtomicMeasure:
    """Level-L approximation of the self-similar two-branch Cantor measure
    on the circle.

    2^L atoms of equal mass sit at the centers of the level-L construction
    intervals with contraction `ratio`; the similarity dimension is
    ln2 / ln(1/ratio).
    """
    if not 0 < ratio < 0.5:
        raise ValueError(f"contraction ratio must be in (0, 1/2), got {ratio}")
    (level,) = _integers("level", (level,))
    if level < 0 or (1 << level) > _ATOM_CAP:
        raise ValueError(f"level must be in 0..{_ATOM_CAP.bit_length() - 1}, got {level}")
    pts = np.zeros(1)
    width = 1.0
    for _ in range(level):
        pts = np.concatenate([pts, pts + width * (1.0 - ratio)])
        width *= ratio
    pos = (pts + width / 2.0) * TAU
    masses = np.full(pos.size, 1.0 / pos.size)
    return AtomicMeasure(1, pos, masses, math.log(2) / math.log(1.0 / ratio))


def uniform_measure(n: int) -> AtomicMeasure:
    """n equally spaced atoms of equal mass on the circle: the grid surrogate
    of the normalized Lebesgue measure."""
    (n,) = _integers("atom count n", (n,))
    if n < 1:
        raise ValueError("need at least one atom")
    return AtomicMeasure(1, TAU * np.arange(n) / n, np.full(n, 1.0 / n), 1.0)


def frostman_constant(mu: AtomicMeasure, radii: Sequence[float]) -> float:
    """Estimate sup over centers and radii of mu(B(x, r)) / r^alpha, with
    alpha = mu.alpha.

    One-dimensional only; otherwise ValueError.  Balls are closed arcs;
    candidate centers are the atom positions, which attain the grid
    supremum for atomic measures.  The atoms are sorted and their prefix
    masses summed once; each radius then costs two binary searches.
    """
    radii = tuple(float(r) for r in radii)
    if not radii or any(r <= 0 for r in radii):
        raise ValueError("radius grid must be nonempty and positive")
    if mu.d != 1:
        raise ValueError("Frostman quotients are implemented for d = 1")
    centers = mu.positions[:, 0]
    order = np.argsort(centers, kind="stable")
    pos = centers[order]
    cum = np.concatenate([[0.0], np.cumsum(mu.masses[order])])
    total = cum[-1]
    eps = 1e-12
    quotients = []
    for r in radii:
        if 2 * r >= TAU:
            masses = np.full(centers.size, total)
        else:
            lo = (centers - r - eps) % TAU
            hi = (centers + r + eps) % TAU
            lo_i = np.searchsorted(pos, lo, side="left")
            hi_i = np.searchsorted(pos, hi, side="right")
            masses = np.where(lo > hi, (total - cum[lo_i]) + cum[hi_i], cum[hi_i] - cum[lo_i])
        quotients.append(float((masses / r**mu.alpha).max()))
    return max(quotients)


def dirichlet_abs_max_envelope(n: int, x: np.ndarray, plain: np.ndarray) -> np.ndarray:
    """Tight upper envelope of sup over M <= N of |d_M(x)|.

    Uses min(2N+1, 1/|sin(x/2)|), which dominates every |d_M| and matches
    the true supremum up to a bounded factor; combined with plain = |d_N(x)|,
    which the caller already holds, so the maximal variant dominates the
    plain kernel pointwise.
    """
    s = np.abs(np.sin(np.asarray(x, dtype=float) / 2.0))
    cap = float(2 * n + 1)
    with np.errstate(divide="ignore"):
        env = np.where(s > 1.0 / cap, 1.0 / np.maximum(s, 1e-300), cap)
    env = np.minimum(env, cap)
    return np.maximum(env, plain)


def _dirichlet_grid_into(n: int, m: int, out: np.ndarray) -> None:
    """Write |D_N(2 pi i / m)| for i < len(out) into out, one _BLOCK_ENTRIES
    block of grid points at a time.

    Each block builds x = TAU * i / m from the integer i, the same float as
    in the whole grid, and the kernel acts element by element, so every
    entry has the bits of a whole-grid evaluation.
    """
    for i0 in range(0, len(out), _BLOCK_ENTRIES):
        i1 = min(i0 + _BLOCK_ENTRIES, len(out))
        np.abs(dirichlet_kernel_1d(n, TAU * np.arange(i0, i1) / m), out=out[i0:i1])


def convolve_dirichlet_sup(mu: AtomicMeasure, ns: Sequence[int], x_grid: int) -> list[float]:
    """For each N in ns, the max over the grid 2 pi i / m, i = 0..m-1 with
    m = x_grid, of the sum over atoms of mass * |D_N(x - y)|, computed by a
    circular real-input FFT.

    One-dimensional only, every atom must sit on the grid, and the grid may
    hold at most 2^24 points; otherwise ValueError.  The grid must
    resolve the kernel oscillation of every N: spacing 2 pi / m <= 1/(10 N).
    All of this is checked before any grid array exists, so a bad N anywhere
    in ns returns nothing.  The weight half spectrum is built once and shared
    by every N; each N streams its kernel into one reused real grid, whose
    half spectrum of m // 2 + 1 points is multiplied in place and inverted
    back into the grid, so one real grid and two half spectra are the whole
    working set.
    """
    ns = _integers("bandwidths ns", ns)
    if not ns:
        raise ValueError("need at least one bandwidth")
    if mu.d != 1:
        raise ValueError("grid convolution is implemented for d = 1")
    (m,) = _integers("x_grid", (x_grid,))
    if m < 2:
        raise ValueError("grid must contain at least two points")
    if m > GRID_CAP:
        raise ValueError(f"grid of {m} points above cap {GRID_CAP}")
    for n in ns:
        if n < 1:
            raise ValueError(f"bandwidth must be >= 1, got {n}")
        if TAU / m > 1.0 / (10.0 * n):
            raise ValueError(
                f"grid spacing {TAU / m:.3g} under-resolves the kernel scale 1/(10N)={1/(10*n):.3g}"
            )
    pos = mu.positions[:, 0]
    # an atom just below 2 pi rounds to point m, which is point 0
    idx = np.rint(pos / TAU * m).astype(np.int64)
    if not np.max(np.abs(pos - TAU * idx / m)) < 1e-9 * TAU / m:
        raise ValueError(f"an atom lies off the {m}-point grid")
    idx %= m
    grid = np.zeros(m)
    np.add.at(grid, idx, mu.masses)
    spectrum = np.fft.rfft(grid)
    half = np.empty_like(spectrum)
    out = []
    for n in ns:
        _dirichlet_grid_into(n, m, grid)
        np.fft.rfft(grid, out=half)
        half *= spectrum
        np.fft.irfft(half, n=m, out=grid)
        out.append(float(grid.max()))
    return out


def _simpson(f: np.ndarray, m: int) -> float:
    """Composite Simpson sum of f over the m intervals of the circle.  The
    weights 4 and 2 are powers of two, so weighting f in place and dividing
    them back out leaves every value as it was."""
    f[1:-1:2] *= 4.0
    f[2:-1:2] *= 2.0
    total = float(f.sum() * (TAU / m) / 3.0)
    f[1:-1:2] /= 4.0
    f[2:-1:2] /= 2.0
    return total


def dirichlet_l1(n: int) -> tuple[float, float]:
    """Quadratures of the circle integrals of |D_N| and of its maximal
    envelope, as (plain, maximal).

    Composite Simpson on a uniform grid that oversamples the kernel
    oscillation by a factor ~20; both share the same grid and the same
    |D_N| values, so the maximal value dominates the plain one exactly.
    Accuracy is limited by the kernel's |.| kinks: against an 8x
    refined grid it stays within 2e-4 relative across N <= 2^16
    (documented error control).
    The kernel is streamed into one array of m + 1 values, summed, and
    then overwritten block by block with its envelope and summed again.
    """
    (n,) = _integers("bandwidth n", (n,))
    if n < 1:
        raise ValueError(f"bandwidth must be >= 1, got {n}")
    m = max(40 * n, 2000)  # even, as Simpson needs
    f = np.empty(m + 1)
    _dirichlet_grid_into(n, m, f)
    plain_l1 = _simpson(f, m)
    for i0 in range(0, m + 1, _BLOCK_ENTRIES):
        block = f[i0 : i0 + _BLOCK_ENTRIES]
        block[:] = dirichlet_abs_max_envelope(n, TAU * np.arange(i0, i0 + len(block)) / m, block)
    return plain_l1, _simpson(f, m)


@dataclass(frozen=True)
class TimeSamplingPlan:
    """Finite surrogate for the time supremum over (0, 1].

    Combines the reciprocal times 2 pi / q <= 1, q <= q_max (where
    rational-time resonances concentrate) with a uniform grid on (0, 1].
    """

    q_max: int = 64
    grid: int = 64

    def times(self) -> list[float]:
        out = [TAU / q for q in range(math.ceil(TAU), self.q_max + 1)]
        out += [i / self.grid for i in range(1, self.grid + 1)]
        return out


def _block_rows(nk: int) -> int:
    """Atoms per block for an exponential with nk columns (at least one)."""
    return max(1, _BLOCK_ENTRIES // max(nk, 1))


def _atom_maxima(
    mu: AtomicMeasure,
    ks: np.ndarray,
    shift: np.ndarray | float,
    vectors: Sequence[tuple[np.ndarray | None, np.ndarray]],
) -> np.ndarray:
    """max over (keep, v) in vectors of |sum over kept k of v_k e^{i(k.x - shift_k)}|
    at every atom x; keep None keeps every k, and v holds one entry per kept k.

    The atoms go in blocks of _block_rows, and each block's full-band
    exponential meets every vector.  A row's GEMV result does not depend on
    the block's row count.
    """
    kf = ks.T.astype(float)
    best = np.zeros(mu.n_atoms)
    rows = _block_rows(ks.shape[0])
    for start in range(0, mu.n_atoms, rows):
        ex = np.exp(1j * (mu.positions[start : start + rows] @ kf - shift))
        out = best[start : start + rows]
        for keep, v in vectors:
            # compress, not ex[:, keep]: the mask index returns an F-ordered copy, and
            # BLAS then runs the transposed GEMV, which moves the low bits
            kept = ex if keep is None else np.compress(keep, ex, axis=1)
            np.maximum(out, np.abs(kept @ v), out=out)
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
    ksq = (f.ks * f.ks).sum(axis=1).astype(float)
    phased = [(None, f.coeffs * np.exp(-1j * ksq * t)) for t in times]
    best = _atom_maxima(mu, f.ks, 0.0, phased)
    return float((mu.masses * best**p).sum() ** (1.0 / p))


DEFAULT_FROSTMAN_RADII = tuple(2.0 ** (-m) * TAU for m in range(1, 13))


def transfer_regularity(d: int, alpha: float, p: float) -> float:
    """(d - alpha)/p + d/(d+2): above this regularity the Lebesgue-measure
    maximal bound transfers to alpha-dimensional weights."""
    return (d - alpha) / p + d / (d + 2.0)


def illposed_dimension(d: int, s: float) -> float:
    """d - 2s: at or below this dimension the weighted L^2 problem for H^s
    data is ill posed."""
    return d - 2 * s


def transference_ratio(
    f: FourierData,
    mu: AtomicMeasure,
    p: float,
    s: float,
    plan: TimeSamplingPlan,
) -> float:
    """Weighted maximal norm over c_alpha(mu)^(1/p) * H^s norm of the datum,
    with alpha = mu.alpha and c_alpha = mu.c_alpha.

    Requires s > (d - alpha)/p + d/(d+2), the regularity at which the
    Lebesgue-measure maximal bound transfers to alpha-dimensional weights.
    """
    s_min = transfer_regularity(f.d, mu.alpha, p)
    if s <= s_min:
        raise ValueError(f"need s > {s_min:.4f} for the transfer, got s={s}")
    num = maximal_lp_norm(f, mu, p, plan)
    if num == 0.0:
        return 0.0
    den = mu.c_alpha ** (1.0 / p) * sobolev_norm(f, s)
    if den == 0.0:
        raise ValueError("zero denominator with nonzero maximal norm")
    return num / den


def carleson_l2_ratio(
    f: FourierData,
    mu: AtomicMeasure,
    s: float,
    n_trunc_set: Sequence[int],
    t: RationalTime,
) -> float:
    """Weighted L^2 norm of the truncation-maximal flow against its scaling.

    Returns ||max over M in the set, M <= N of |S_M(t)f| ||_{L^2(d mu)}
    divided by sqrt(c_alpha) * N^((d-alpha)/2 + eps) * ||f||_2 at a fixed
    sampled time, with eps = 0.05, alpha = mu.alpha and c_alpha =
    mu.c_alpha.  Rejects alpha <= d - 2s, where the weighted problem is ill
    posed.
    """
    d = f.d
    alpha = mu.alpha
    if not 0 < s <= d / 2:
        raise ValueError(f"s must lie in (0, d/2], got {s}")
    boundary = illposed_dimension(d, s)
    if alpha <= boundary:
        raise ValueError(f"alpha={alpha} is in the ill-posed regime alpha <= d - 2s = {boundary}")
    n = f.bandwidth
    truncs = sorted({m for m in _integers("truncations n_trunc_set", n_trunc_set) if m <= n})
    if not truncs:
        raise ValueError("no truncation levels at or below the bandwidth")
    ks, coeffs = f.ks, f.coeffs
    keeps = [keep for keep in ((np.abs(ks) <= m).all(axis=1) for m in truncs) if keep.any()]
    ksq = (ks * ks).sum(axis=1).astype(float)
    best = _atom_maxima(mu, ks, ksq * t.t, [(keep, coeffs[keep]) for keep in keeps])
    num = float(np.sqrt((mu.masses * best**2).sum()))
    den = math.sqrt(mu.c_alpha) * n ** ((d - alpha) / 2.0 + _CARLESON_EPS) * f.l2()
    if den == 0.0:
        raise ValueError("zero denominator")
    return num / den
