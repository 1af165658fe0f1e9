"""Periodic free-Schrodinger evolution of band-limited data.

Sparse Fourier data on the integer lattice, Dirichlet kernels, the direct
oracle S_N(t)f(x), which takes only exact inputs (rational times t = 2 pi / q
and anchored points x = 2 pi (p/q + eps)) and reduces every integer phase
exactly, and a fast block-decomposition path for product data whose
one-dimensional factors are full frequency blocks [lam^(j-1), lam^j - 1]:
unit_block builds such a datum and block_factors evaluates its factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expsum import _integers, _modulus, _unit_phasor, perturbed_gauss_sum_value, quadratic_sum

TAU = 2.0 * math.pi

# |k|^2 mod q is reduced exactly; k and q are capped so products fit int64.
FREQ_LIMIT = 2**30

_SING_TOL = 1e-8

# Coefficients of the largest datum unit_block builds: 2^24 complex
# entries are 256 MiB.
_BLOCK_COEFF_CAP = 1 << 24


@dataclass(frozen=True)
class RationalTime:
    """Time t = 2 pi / q represented by the exact integer q; t = 0 is q = 1."""

    q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _modulus(self.q))

    @property
    def t(self) -> float:
        return TAU / self.q


@dataclass(frozen=True)
class SamplePoint:
    """Point x = 2 pi (p/q + eps), anchored to the rational lattice p/q.

    The anchor is stored reduced, 0 <= p_i < q.  q is capped at
    MODULUS_LIMIT = 2^31, as for RationalTime: then every residue product
    (k_i mod q) p_i stays below q^2 <= 2^62, so the exact reduction of k.p
    in partial_sum_direct fits int64 at any d.
    """

    p: tuple[int, ...]
    q: int
    eps: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _modulus(self.q))
        if len(self.p) != len(self.eps):
            raise ValueError("anchor and offset dimensions differ")
        if not self.p:
            raise ValueError("sample point needs at least one coordinate")
        # p only matters mod q; reducing it keeps the anchored phase k.p in int64
        object.__setattr__(self, "p", tuple(v % self.q for v in _integers("anchor p", self.p)))

    @property
    def d(self) -> int:
        return len(self.p)


class FourierData:
    """Finitely supported Fourier coefficients on the lattice Z^d.

    Stored as an (n, d) integer array of frequencies and a matching complex
    coefficient array; exact zeros are dropped so the support is genuine.
    Needs d >= 1 and d N^2 < 2^63 (N the bandwidth), so |k|^2 fits int64.
    """

    def __init__(self, d: int, ks: np.ndarray, coeffs: np.ndarray):
        if d < 1:
            raise ValueError(f"dimension d = {d} must be at least 1")
        ks = np.asarray(ks)
        if ks.size and ks.dtype.kind not in "iu":
            raise ValueError(f"frequencies must be integers, got dtype {ks.dtype}")
        ks = ks.astype(np.int64, copy=False).reshape(-1, d)
        coeffs = np.asarray(coeffs, dtype=complex).reshape(-1)
        if ks.shape[0] != coeffs.shape[0]:
            raise ValueError("frequency and coefficient counts differ")
        keep = coeffs != 0
        ks, coeffs = ks[keep], coeffs[keep]
        if ks.size and np.abs(ks).max() > FREQ_LIMIT:
            raise ValueError(f"frequencies exceed limit {FREQ_LIMIT}")
        # sorted rows: equal rows end up next to each other
        rows = ks[np.lexsort(ks.T)]
        if (rows[1:] == rows[:-1]).all(axis=1).any():
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

    @property
    def nnz(self) -> int:
        return int(self.coeffs.size)

    def l2(self) -> float:
        return float(np.sqrt((np.abs(self.coeffs) ** 2).sum()))


def unit_block(d: int, lo: int, hi: int) -> FourierData:
    """Coefficient 1 at every k in [lo, hi]^d, rows in np.indices order."""
    d, lo, hi = _integers("d, lo and hi", (d, lo, hi))
    if d < 1 or hi < lo:
        raise ValueError(f"need d >= 1 and lo <= hi, got d={d}, [{lo}, {hi}]")
    count = (hi - lo + 1) ** d
    if count > _BLOCK_COEFF_CAP:
        raise ValueError(f"block has {count} coefficients, above the cap {_BLOCK_COEFF_CAP}")
    ks = np.indices((hi - lo + 1,) * d).reshape(d, -1).T + lo
    return FourierData(d, ks, np.ones(ks.shape[0], dtype=complex))


def dirichlet_kernel_1d(n: int, x: float | np.ndarray) -> float | np.ndarray:
    """One-dimensional Dirichlet kernel sin((N+1/2)x)/sin(x/2).

    The removable singularity at x = 0 (mod 2 pi) is handled by direct
    summation of the cosine series; the result is clamped to |.| <= 2N+1,
    which the exact kernel satisfies.
    """
    (n,) = _integers("bandwidth n", (n,))
    if n < 0:
        raise ValueError(f"bandwidth must be nonnegative, got {n}")
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    s = np.sin(xa / 2.0)
    near = np.abs(s) < _SING_TOL
    # the near entries divide by ~0 here; the cosine series overwrites them
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin((n + 0.5) * xa) / s
    if np.any(near):
        k = np.arange(1, n + 1, dtype=float)
        for i in np.nonzero(near)[0]:
            out[i] = 1.0 + 2.0 * np.cos(k * xa[i]).sum()
    np.clip(out, -(2 * n + 1), 2 * n + 1, out=out)
    return float(out[0]) if scalar else out


def _dot_into(cols: np.ndarray, v: Sequence, out: np.ndarray) -> None:
    """out = cols @ v computed in out's dtype, one multiply-add per coordinate
    (a one-column matmul is slow)."""
    np.multiply(cols[:, 0], v[0], out=out, dtype=out.dtype)
    for i in range(1, len(v)):
        out += np.multiply(cols[:, i], v[i], dtype=out.dtype)


def _anchored_fraction(res: np.ndarray, x: SamplePoint, frac: np.ndarray) -> None:
    """Write (k.p mod q)/q into frac, from the residues res = k mod q, one row per coordinate.

    Each term r p_i mod q is read from a table of the q residues when q <= nnz
    and multiplied out in int64 otherwise: r p_i < q^2 <= 2^62 either way.
    At d = 1 the table is divided by q and read straight into frac; mode="clip"
    writes straight into the output, where "raise" buffers it.  Otherwise the
    d terms, each below q, are summed and reduced once.
    """
    q, p = x.q, x.p
    if q <= res.shape[1]:
        r = np.arange(q, dtype=np.int64)
        if len(p) == 1:
            np.take(r * p[0] % q / q, res[0], out=frac, mode="clip")
            return
        terms = (np.take(r * p_i % q, row, mode="clip") for row, p_i in zip(res, p))
    else:
        terms = (row * p_i % q for row, p_i in zip(res, p))
    dot = next(terms)
    for term in terms:
        dot += term
    np.remainder(dot, q, out=dot)
    np.true_divide(dot, q, out=frac)


def partial_sum_direct(
    f: FourierData, n: int, t: RationalTime, xs: Sequence[SamplePoint]
) -> np.ndarray:
    """Evaluate S_N(t)f(x) = sum over |k_l| <= N of fhat(k) e^{i k.x - i |k|^2 t} at each x in xs.

    One time, many points: returns a complex array with one entry per point
    of xs.  The truncation and the time phase (|k|^2 mod q)/q are computed
    once per call, and every point is evaluated into the same three work
    buffers, which are locals of the call.  At d = 1 each entry equals a
    per-point evaluation with a fresh array per step bit for bit; at d >= 2
    k.eps is summed one coordinate at a time, so it may differ from a matrix
    product in the last bit.  A float point y is the anchored point
    SamplePoint((0,) * d, 1, y / (2 pi)).

    Every integer phase is reduced modulo one full turn exactly.  The
    residues k mod q are computed once for each run of points with one
    modulus, and k.p mod q is reduced one coordinate at a time, so no int64
    product passes q^2 <= 2^62 whatever d, N and q are.  |k|^2 fits int64
    because FourierData admits only d N^2 < 2^63.
    """
    out = np.zeros(len(xs), dtype=complex)
    ks, coeffs = f.ks, f.coeffs
    if f.bandwidth > n:
        keep = (np.abs(ks) <= n).all(axis=1)
        ks, coeffs = ks[keep], coeffs[keep]
    nnz = ks.shape[0]
    if nnz == 0:
        return out
    tphase = ((ks * ks).sum(axis=1) % t.q) / t.q
    frac = np.empty(nnz)
    term = np.empty(nnz)
    wave = np.empty(nnz, dtype=complex)
    res_q = None  # the modulus whose residues res holds
    for i, x in enumerate(xs):
        if x.d != f.d:
            raise ValueError(f"dimension mismatch: point d={x.d}, data d={f.d}")
        if x.q != res_q:
            res, res_q = np.remainder(ks.T, x.q, order="C"), x.q
        _anchored_fraction(res, x, frac)
        # the float products cast k from int64 exactly, as |k| <= FREQ_LIMIT
        _dot_into(ks, x.eps, term)
        np.add(frac, term, out=frac)
        np.subtract(frac, tphase, out=frac)
        _unit_phasor(frac, wave)
        np.multiply(coeffs, wave, out=wave)
        out[i] = wave.sum()
    return out


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
    geom = complex(_unit_phasor((q * eps * (l + m)) % 1.0).sum())
    middle = geom * perturbed_gauss_sum_value(q, p, eps)
    left = quad_block_sum(a, l * q - 1, q, p, eps)
    right = quad_block_sum(r * q, b, q, p, eps)
    return middle + left + right


def block_factors(
    lam: int, j: int, xs: Sequence[SamplePoint], n_hi: int | None = None
) -> np.ndarray:
    """block_factor_fast at each coordinate of each point, shape (len(xs), d),
    at the time 2 pi / q of the point's own modulus q."""
    rows = []
    for x in xs:
        t = RationalTime(x.q)
        rows.append([block_factor_fast(lam, j, t, p, eps, n_hi) for p, eps in zip(x.p, x.eps)])
    return np.array(rows)


def sobolev_norm(f: FourierData, s: float) -> float:
    """Norm (sum over k of (1+|k|^2)^s |fhat(k)|^2)^(1/2)."""
    if s < 0:
        raise ValueError(f"regularity must be nonnegative, got s={s}")
    if f.nnz == 0:
        return 0.0
    ksq = (f.ks * f.ks).sum(axis=1).astype(float)
    return float(np.sqrt(((1.0 + ksq) ** s * np.abs(f.coeffs) ** 2).sum()))
