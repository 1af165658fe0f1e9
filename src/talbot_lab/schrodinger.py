"""Periodic free-Schrodinger evolution of band-limited data.

Sparse Fourier data on the integer lattice, Dirichlet kernels, truncated
flow evaluation S_N(t)f(x) with exact phase reduction at rational times
t = 2 pi / q, and a fast block-decomposition path for product data whose
one-dimensional factors are full frequency blocks [lam^(j-1), lam^j - 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expsum import MODULUS_LIMIT, perturbed_gauss_sum_value, quadratic_sum

TAU = 2.0 * math.pi

# |k|^2 mod q is reduced exactly; k and q are capped so products fit int64.
FREQ_LIMIT = 2**30

_SING_TOL = 1e-8


@dataclass(frozen=True)
class RationalTime:
    """Time t = 2 pi / q represented by the exact integer q."""

    q: int

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError(f"q must be a positive integer, got {self.q}")
        if self.q > MODULUS_LIMIT:
            raise ValueError(f"q={self.q} exceeds limit {MODULUS_LIMIT}")

    @property
    def t(self) -> float:
        return TAU / self.q


@dataclass(frozen=True)
class SamplePoint:
    """Point x = 2 pi (p/q + eps), anchored to the rational lattice p/q.

    The anchor is stored reduced, 0 <= p_i < q.
    """

    p: tuple[int, ...]
    q: int
    eps: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError(f"q must be positive, got {self.q}")
        if len(self.p) != len(self.eps):
            raise ValueError("anchor and offset dimensions differ")
        if not self.p:
            raise ValueError("sample point needs at least one coordinate")
        # p only matters mod q; reducing it keeps the anchored phase k.p in int64
        object.__setattr__(self, "p", tuple(int(v) % self.q for v in self.p))

    @property
    def d(self) -> int:
        return len(self.p)

    @property
    def x(self) -> np.ndarray:
        """Position in radians, reduced to [0, 2 pi) per coordinate."""
        frac = (np.asarray(self.p, dtype=float) / self.q + np.asarray(self.eps)) % 1.0
        return TAU * frac


class FourierData:
    """Finitely supported Fourier coefficients on the lattice Z^d.

    Stored as an (n, d) integer array of frequencies and a matching complex
    coefficient array; exact zeros are dropped so the support is genuine.
    Needs d >= 1 and d N^2 < 2^63 (N the bandwidth), so |k|^2 fits int64.
    """

    def __init__(self, d: int, ks: np.ndarray, coeffs: np.ndarray):
        if d < 1:
            raise ValueError(f"dimension d = {d} must be at least 1")
        ks = np.asarray(ks, dtype=np.int64).reshape(-1, d)
        coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
        if ks.shape[0] != coeffs.shape[0]:
            raise ValueError("frequency and coefficient counts differ")
        keep = coeffs != 0
        ks, coeffs = ks[keep], coeffs[keep]
        if ks.size and np.abs(ks).max() > FREQ_LIMIT:
            raise ValueError(f"frequencies exceed limit {FREQ_LIMIT}")
        if np.unique(ks, axis=0).shape[0] != ks.shape[0]:
            raise ValueError("duplicate lattice points in coefficient map")
        bandwidth = int(np.abs(ks).max()) if ks.size else 0
        if d * bandwidth**2 >= 2**63:
            raise ValueError(
                f"d={d}, N={bandwidth}: |k|^2 up to d N^2 reaches 2^63 and would wrap in int64"
            )
        self.d = d
        self.ks = ks
        self.coeffs = coeffs
        self.bandwidth = bandwidth

    @classmethod
    def from_dict(cls, d: int, coeffs: Mapping[tuple[int, ...] | int, complex]) -> "FourierData":
        keys, vals = [], []
        for k, c in coeffs.items():
            keys.append((k,) if isinstance(k, int) else tuple(k))
            vals.append(c)
        if not keys:
            return cls(d, np.zeros((0, d), dtype=np.int64), np.zeros(0, dtype=complex))
        return cls(d, np.array(keys, dtype=np.int64), np.array(vals, dtype=complex))

    def coefficients(self) -> dict[tuple[int, ...], complex]:
        return {tuple(int(v) for v in k): complex(c) for k, c in zip(self.ks, self.coeffs)}

    @property
    def nnz(self) -> int:
        return int(self.coeffs.size)

    def l1(self) -> float:
        return float(np.abs(self.coeffs).sum())

    def l2(self) -> float:
        return float(np.sqrt((np.abs(self.coeffs) ** 2).sum()))


@dataclass(frozen=True)
class DirichletBlock:
    """Product datum whose factors sum e^{i n x} over n in [lam^(j-1), lam^j - 1].

    Carries no amplitude; scaling is applied by callers.
    """

    d: int
    lam: int
    j: int

    def __post_init__(self) -> None:
        if self.d < 1 or self.lam < 2 or self.j < 1:
            raise ValueError("need d >= 1, lam >= 2, j >= 1")
        if self.lam**self.j > FREQ_LIMIT:
            raise ValueError(f"block top {self.lam}^{self.j} exceeds limit {FREQ_LIMIT}")

    @property
    def n_lo(self) -> int:
        return self.lam ** (self.j - 1)

    @property
    def n_hi(self) -> int:
        return self.lam**self.j - 1

    def coefficient_count(self) -> int:
        return (self.n_hi - self.n_lo + 1) ** self.d

    def to_fourier_data(self, amplitude: complex = 1.0, max_coeffs: int = 1 << 24) -> FourierData:
        count = self.coefficient_count()
        if count > max_coeffs:
            raise ValueError(f"block has {count} coefficients, above the cap {max_coeffs}")
        axis = np.arange(self.n_lo, self.n_hi + 1, dtype=np.int64)
        grids = np.meshgrid(*([axis] * self.d), indexing="ij")
        ks = np.stack([g.ravel() for g in grids], axis=1)
        return FourierData(self.d, ks, np.full(ks.shape[0], amplitude, dtype=complex))


def dirichlet_kernel_1d(n: int, x: float | np.ndarray) -> float | np.ndarray:
    """One-dimensional Dirichlet kernel sin((N+1/2)x)/sin(x/2).

    The removable singularity at x = 0 (mod 2 pi) is handled by direct
    summation of the cosine series; the result is clamped to |.| <= 2N+1,
    which the exact kernel satisfies.
    """
    if n < 0:
        raise ValueError(f"bandwidth must be nonnegative, got {n}")
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    s = np.sin(xa / 2.0)
    near = np.abs(s) < _SING_TOL
    out = np.empty_like(xa)
    safe = ~near
    out[safe] = np.sin((n + 0.5) * xa[safe]) / s[safe]
    if np.any(near):
        k = np.arange(1, n + 1, dtype=float)
        for i in np.nonzero(near)[0]:
            out[i] = 1.0 + 2.0 * np.cos(k * xa[i]).sum()
    np.clip(out, -(2 * n + 1), 2 * n + 1, out=out)
    return float(out[0]) if scalar else out


def dirichlet_kernel_nd(n: int, x: Sequence[float]) -> float:
    """Product of one-dimensional kernels over the coordinates."""
    xa = np.asarray(x, dtype=float).reshape(-1)
    return float(np.prod(dirichlet_kernel_1d(n, xa)))


def _phase_fraction_x(ks: np.ndarray, x: SamplePoint | Sequence[float]) -> np.ndarray:
    """k.x as a fraction of a full turn (cycles), exactly reduced when anchored."""
    if isinstance(x, SamplePoint):
        p = np.asarray(x.p, dtype=np.int64)
        dot = ks @ p
        frac = (dot % x.q) / x.q
        return frac + ks @ np.asarray(x.eps, dtype=float)
    return (ks @ np.asarray(x, dtype=float)) / TAU


def _phase_fraction_t(ksq: np.ndarray, t: RationalTime | float) -> np.ndarray:
    """|k|^2 t as a fraction of a full turn, exact for rational times."""
    if isinstance(t, RationalTime):
        return (ksq % t.q) / t.q
    return ksq * (float(t) / TAU)


def partial_sum_direct(
    f: FourierData,
    n: int,
    t: RationalTime | float,
    x: SamplePoint | Sequence[float],
) -> complex:
    """Evaluate S_N(t)f(x) = sum over |k_l| <= N of fhat(k) e^{i k.x - i |k|^2 t}.

    Phases are reduced modulo one full turn; the reduction is exact in
    integer arithmetic when t is a RationalTime and x a SamplePoint.  For
    floating-point times the reduction happens in double precision, which
    degrades once N^2 t approaches 2^53.  The int64 phases |k|^2 <= d N^2
    and |k.p| < d N q (N the truncated bandwidth) must stay below 2^63;
    a ValueError is raised otherwise.
    """
    bandwidth = int(min(n, f.bandwidth))
    anchor_q = int(x.q) if isinstance(x, SamplePoint) else 1
    if f.d * bandwidth * max(bandwidth, anchor_q) >= 2**63:
        raise ValueError(
            f"d={f.d}, N={bandwidth}, q={anchor_q}: d N^2 or d N q reaches 2^63, "
            "so the exact int64 phases would wrap"
        )
    ks, coeffs = f.ks, f.coeffs
    if f.bandwidth > n:
        keep = (np.abs(ks) <= n).all(axis=1)
        ks, coeffs = ks[keep], coeffs[keep]
    if ks.shape[0] == 0:
        return 0.0 + 0.0j
    ksq = (ks * ks).sum(axis=1)
    frac = _phase_fraction_x(ks, x) - _phase_fraction_t(ksq, t)
    return complex((coeffs * np.exp(2j * math.pi * frac)).sum())


def quad_block_sum(a: int, b: int, q: int, p: int, eps: float) -> complex:
    """Sum over n = a..b of e^{2 pi i (n(p/q + eps) - n^2/q)}, exactly reduced."""
    if b > FREQ_LIMIT:
        raise ValueError(f"index range exceeds limit {FREQ_LIMIT}")
    return quadratic_sum(-1, p, q, eps, a, b)


def block_split(lam: int, j: int, q: int, n_hi: int | None = None) -> tuple[int, int, int, int]:
    """Endpoints (a, b) of the block and the complete-period range [L, R).

    Returns (a, b, L, R) with L the smallest integer with L q >= a and R the
    largest with R q <= b + 1.  The split is degenerate (no complete period)
    when R <= L.
    """
    a = lam ** (j - 1)
    b = lam**j - 1
    if n_hi is not None:
        b = min(b, n_hi)
    l = -((-a) // q)
    r = (b + 1) // q
    return a, b, l, r


def block_factor_direct(
    lam: int, j: int, t: RationalTime, p: int, eps: float, n_hi: int | None = None
) -> complex:
    """Reference single-coordinate factor by direct summation."""
    a, b, _, _ = block_split(lam, j, t.q, n_hi)
    return quad_block_sum(a, b, t.q, p, eps)


def block_factor_fast(
    lam: int, j: int, t: RationalTime, p: int, eps: float, n_hi: int | None = None
) -> complex:
    """Single-coordinate factor via the complete-period decomposition.

    The range [a, b] is split into complete residue periods, evaluated as a
    coherent geometric sum times a complete perturbed quadratic sum, plus
    two boundary pieces of length < q each.
    """
    q = t.q
    a, b, l, r = block_split(lam, j, q, n_hi)
    if b < a:
        return 0.0 + 0.0j
    if r <= l:
        return quad_block_sum(a, b, q, p, eps)
    m = np.arange(r - l, dtype=np.int64)
    geom = complex(np.exp(2j * math.pi * ((q * eps * (l + m)) % 1.0)).sum())
    middle = geom * perturbed_gauss_sum_value(q, p, eps)
    left = quad_block_sum(a, l * q - 1, q, p, eps)
    right = quad_block_sum(r * q, b, q, p, eps)
    return middle + left + right


def evolve_rational_fast(block: DirichletBlock, t: RationalTime, x: SamplePoint) -> complex:
    """Evaluate the pure block datum at rational time t via the fast path.

    Requires the sample anchored to the same modulus as the time; each
    coordinate factor is computed by block_factor_fast and the results
    multiplied.
    """
    if x.q != t.q:
        raise ValueError(f"anchor mismatch: sample q={x.q}, time q={t.q}")
    if x.d != block.d:
        raise ValueError(f"dimension mismatch: sample d={x.d}, block d={block.d}")
    out = 1.0 + 0.0j
    for p_i, eps_i in zip(x.p, x.eps):
        out *= block_factor_fast(block.lam, block.j, t, p_i, eps_i)
    return out


def maximal_over_times(
    f: FourierData,
    n: int,
    times: Iterable[RationalTime | float],
    x: SamplePoint | Sequence[float],
) -> float:
    """Max over the supplied times of |S_N(t)f(x)|."""
    best = None
    for t in times:
        v = abs(partial_sum_direct(f, n, t, x))
        best = v if best is None else max(best, v)
    if best is None:
        raise ValueError("time set must be nonempty")
    return best


def sobolev_norm(f: FourierData, s: float) -> float:
    """Norm (sum over k of (1+|k|^2)^s |fhat(k)|^2)^(1/2)."""
    if s < 0:
        raise ValueError(f"regularity must be nonnegative, got s={s}")
    if f.nnz == 0:
        return 0.0
    ksq = (f.ks * f.ks).sum(axis=1).astype(float)
    return float(np.sqrt(((1.0 + ksq) ** s * np.abs(f.coeffs) ** 2).sum()))
