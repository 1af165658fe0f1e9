"""Quadratic exponential sums.

Exact evaluation of complete and incomplete quadratic sums, a perturbed
complete-sum check, and the classical square-root-cancellation bound
calculators (second/first derivative tests, summation by parts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# Largest modulus of the exact int64 phase reduction; quadratic_sum states the bound.
MODULUS_LIMIT = 2**31

_CHUNK = 1 << 20


@dataclass(frozen=True)
class IntegerInterval:
    """Closed integer interval [left, right]; its length is right - left."""

    left: int
    right: int

    def __post_init__(self) -> None:
        if self.left < 0:
            raise ValueError(f"left endpoint must be nonnegative, got {self.left}")
        if self.left > self.right:
            raise ValueError(f"empty interval [{self.left}, {self.right}]")
        if self.right > MODULUS_LIMIT:
            raise ValueError(f"right endpoint {self.right} exceeds limit {MODULUS_LIMIT}")

    @property
    def length(self) -> int:
        return self.right - self.left


def quadratic_sum(a2: int, a1: int, q: int, eps: float, lo: int, hi: int) -> complex:
    """Sum over k = lo..hi of e^{2 pi i ((a2 k^2 + a1 k) mod q / q + eps k)}.

    The rational part of the phase is reduced exactly in int64: with
    km = k mod q and a2, a1 reduced mod q, each of the products
    a2 (km^2 mod q) and a1 km is at most (q-1)^2 < 2^62 for
    q <= MODULUS_LIMIT, and each is reduced mod q before the two are
    added, so the sum stays below 2q.  Only eps*k is handled in floating
    point.  The range is summed in chunks of _CHUNK terms from lo; an
    empty range (hi < lo) sums to 0.
    """
    if q < 1 or q > MODULUS_LIMIT:
        raise ValueError(f"modulus {q} out of range")
    a2m = a2 % q
    a1m = a1 % q
    total = 0.0 + 0.0j
    for start in range(lo, hi + 1, _CHUNK):
        k = np.arange(start, min(start + _CHUNK, hi + 1), dtype=np.int64)
        km = k % q
        idx = (a2m * (km * km % q) % q + a1m * km % q) % q
        frac = idx / q + (eps * k) % 1.0
        total += np.exp(2j * math.pi * frac).sum()
    return complex(total)


def gauss_sum_table(q: int, r: int) -> np.ndarray:
    """Complete quadratic sums for every linear coefficient p = 0..q-1 at once.

    The quadratic part is reduced exactly; the linear part is applied as a
    discrete Fourier transform, which computes the same sums in O(q log q).
    """
    if q < 1 or q > MODULUS_LIMIT:
        raise ValueError(f"modulus {q} out of range")
    r = r % q
    k = np.arange(q, dtype=np.int64)
    v = np.exp(2j * math.pi * ((r * (k * k % q)) % q / q))
    # sum_k v_k e^{2 pi i p k / q} = q * ifft(v)[p]
    return q * np.fft.ifft(v)


def gauss_sum_magnitudes(q: int, r: int) -> np.ndarray:
    """Closed-form magnitudes of the complete sums for every p = 0..q-1.

    The closed-form counterpart of gauss_sum_table.  Requires
    gcd(r, q) = 1; the magnitude is sqrt(q) for odd q, sqrt(2q) when
    q = 0 (mod 4) with even p or q = 2 (mod 4) with odd p, and 0 otherwise.
    """
    if q < 1 or q > MODULUS_LIMIT:
        raise ValueError(f"modulus {q} out of range")
    if math.gcd(r, q) != 1:
        raise ValueError(f"closed form needs gcd(r, q) = 1, got r={r}, q={q}")
    if q % 2 == 1:
        return np.full(q, math.sqrt(q))
    ps = np.arange(q)
    if q % 4 == 0:
        return np.where(ps % 2 == 0, math.sqrt(2.0 * q), 0.0)
    return np.where(ps % 2 == 1, math.sqrt(2.0 * q), 0.0)


def perturbed_gauss_sum_value(q: int, p: int, eps: float) -> complex:
    """Sum over r = 0..q-1 of e^{2 pi i (r(p/q + eps) - r^2/q)}."""
    return quadratic_sum(-1, p, q, eps, 0, q - 1)


class PerturbedGaussCheck(NamedTuple):
    magnitude: float
    deviation: float


def perturbed_gauss_sum_check(q: int, p: int, eps: float) -> PerturbedGaussCheck:
    """Magnitude of the perturbed complete sum and its drift from sqrt(2q).

    Preconditions: q = 0 (mod 4), p = 0 (mod 2) and |eps| q < 1/10, the
    regime where the unperturbed magnitude is exactly sqrt(2q).
    """
    if q % 4 != 0:
        raise ValueError(f"q must be divisible by 4, got {q}")
    if p % 2 != 0:
        raise ValueError(f"p must be even, got {p}")
    if abs(eps) * q >= 0.1:
        raise ValueError(f"|eps| q = {abs(eps) * q:.3g} violates the smallness bound 1/10")
    mag = abs(perturbed_gauss_sum_value(q, p, eps))
    return PerturbedGaussCheck(mag, abs(mag - math.sqrt(2 * q)))


def vdc_second_derivative_bound(interval: IntegerInterval, m: float, ratio: float) -> float:
    """Second-derivative-test bound ratio*|I|*sqrt(M) + 1/sqrt(M).

    The implicit constant of the underlying estimate is carried by the
    caller; m is the lower bound of |f''| and ratio the upper/lower ratio.
    """
    if m <= 0:
        raise ValueError(f"M must be positive, got {m}")
    if ratio < 1:
        raise ValueError(f"ratio must be >= 1, got {ratio}")
    return ratio * interval.length * math.sqrt(m) + 1.0 / math.sqrt(m)


def vdc_first_derivative_bound(kappa: float) -> float:
    """First-derivative-test bound 1/kappa for phases with derivative at
    distance >= kappa from the integers (constant carried by caller)."""
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if kappa > 0.5:
        raise ValueError(f"kappa={kappa} exceeds 1/2, the largest possible distance")
    return 1.0 / kappa


class AbelBoundCheck(NamedTuple):
    bound: float
    lhs: float
    holds: bool


ABEL_SLACK = 1e-10


def abel_bound_check(a: Sequence[float], b: Sequence[complex]) -> AbelBoundCheck:
    """Check the summation-by-parts inequality |sum a_k b_k| <= C * a_end.

    C is the exact maximum of |sum of b over I'| over all integer
    subintervals I', computed from prefix sums in O(n^2).  The monotone
    endpoint is a[left] for nonincreasing weights and a[right] for
    nondecreasing ones.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=complex)
    if av.shape != bv.shape or av.ndim != 1 or av.size == 0:
        raise ValueError("weight and term sequences must be equal-length 1-d arrays")
    if np.any(av < 0):
        raise ValueError("weights must be nonnegative")
    nonincreasing = bool(np.all(np.diff(av) <= 0))
    nondecreasing = bool(np.all(np.diff(av) >= 0))
    if not (nonincreasing or nondecreasing):
        raise ValueError("weights must be monotone")
    if av.size > 4096:
        raise ValueError("subinterval maximum is O(n^2); desk-scale limit is 4096 terms")

    prefix = np.concatenate(([0.0 + 0.0j], np.cumsum(bv)))
    c_max = float(np.max(np.abs(prefix[None, :] - prefix[:, None])))
    endpoint = av[0] if nonincreasing else av[-1]
    bound = c_max * float(endpoint)
    lhs = float(abs(np.sum(av * bv)))
    return AbelBoundCheck(bound, lhs, lhs <= bound + ABEL_SLACK)
