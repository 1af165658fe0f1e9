"""Blow-up construction for the truncated periodic flow.

Lacunary product data f_j, reciprocal-time windows T^j, anchored sample
families X_t^j, and numerical verification of the three magnitude claims
(growth at level j, control below j, decay above j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .expsum import _integers, _modulus
from .schrodinger import RationalTime, SamplePoint, block_factors, block_split


@dataclass(frozen=True)
class CounterexampleParams:
    """Parameter tuple (d, alpha, lam, delta, kappa, c1, c2).

    Derived quantities: s_alpha = d(d+1-alpha)/(2(d+1)) and
    tau = (d+1)/alpha.  The offset window constants c1 < c2 are kept as
    exact rationals so cube corners can be audited in exact arithmetic.
    """

    d: int
    alpha: float
    lam: int
    delta: float
    kappa: float
    c1: Fraction = Fraction(1, 200)
    c2: Fraction = Fraction(1, 100)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if not 0 < self.alpha <= self.d:
            raise ValueError(f"alpha must be in (0, d], got {self.alpha}")
        (lam,) = _integers("lam", (self.lam,))
        if lam < 2:
            raise ValueError(f"lam must be an integer >= 2, got {lam}")
        object.__setattr__(self, "lam", lam)
        if not 0 < self.kappa < 1:
            raise ValueError(f"kappa must be in (0, 1), got {self.kappa}")
        object.__setattr__(self, "c1", Fraction(self.c1))
        object.__setattr__(self, "c2", Fraction(self.c2))
        if not 0 < self.c1 < self.c2 <= 1:
            raise ValueError(f"need 0 < c1 < c2 <= 1, got c1={self.c1}, c2={self.c2}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.delta >= self.s_alpha:
            raise ValueError(
                f"delta={self.delta} must stay below s_alpha={self.s_alpha:.4f}"
            )
        # Consecutive q-windows [kappa lam^(j/tau), lam^(j/tau)] must cover
        # all large scales, i.e. lam^(1/tau) <= 1/kappa (touching allowed).
        if self.lam ** (1.0 / self.tau) > (1.0 / self.kappa) * (1 + 1e-12):
            raise ValueError(
                f"window overlap violated: lam^(1/tau)={self.lam ** (1 / self.tau):.4f}"
                f" > 1/kappa={1 / self.kappa:.4f}"
            )

    @property
    def s_alpha(self) -> float:
        return self.d * (self.d + 1 - self.alpha) / (2.0 * (self.d + 1))

    @property
    def tau(self) -> float:
        return (self.d + 1) / self.alpha

    def amplitude(self, j: int) -> float:
        """Coefficient height lam^(-j (s_alpha + d/2 - delta)) of block j."""
        return float(self.lam) ** (-j * (self.s_alpha + self.d / 2.0 - self.delta))

    def eps_window(self, j: int) -> tuple[float, float]:
        scale = float(self.lam) ** (-j)
        return float(self.c1) * scale, float(self.c2) * scale

    def q_window(self, j: int) -> range:
        """Denominators q >= 4, q = 0 (mod 4), in [kappa lam^(j/tau), lam^(j/tau)].

        The top denominator is a modulus (expsum._modulus), so a level whose
        window passes 2^31 raises ValueError naming the level and (alpha,
        lam, kappa); below that bound the float slack is under 0.003 of a
        denominator.
        """
        top = float(self.lam) ** (j / self.tau)
        # relative slack: the rounding error of the power grows with top
        lo = int(math.ceil(self.kappa * top * (1 - 1e-12)))
        try:
            hi = _modulus(math.floor(top * (1 + 1e-12)))
        except ValueError as exc:
            raise ValueError(
                f"level {j} of alpha = {self.alpha}, lam = {self.lam}, kappa = {self.kappa}: {exc}"
            ) from None
        return range(max(4, lo + (-lo) % 4), hi + 1, 4)


def anchor_range(q: int) -> range:
    """Even integers in the closed anchor window [q/4, q/2]."""
    lo = -((-q) // 4)  # ceil(q/4)
    return range(lo + lo % 2, q // 2 + 1, 2)


def time_set(params: CounterexampleParams, j: int) -> list[RationalTime]:
    """All times 2 pi / q with q in the level-j window params.q_window(j)."""
    qs = params.q_window(j)
    if not qs:
        top = float(params.lam) ** (j / params.tau)
        raise ValueError(
            f"no q = 0 (mod 4) in [{params.kappa * top:.2f}, {top:.2f}] at level {j}; "
            f"the cover condition lam^(1/tau) <= 1/kappa needs a larger window"
        )
    return [RationalTime(q) for q in qs]


def sample_points(
    params: CounterexampleParams,
    j: int,
    t: RationalTime,
    count: int,
    seed: int,
) -> list[SamplePoint]:
    """Draw anchored samples x = 2 pi (p/q + eps) from the level-j family.

    Anchors p_i are even integers in [q/4, q/2]; offsets eps_i are uniform
    in [c1 lam^-j, c2 lam^-j].  Deterministic in the seed.  Any q >= 8
    admits anchors; smaller q are accepted as long as the window is
    nonempty.
    """
    evens = anchor_range(t.q)
    if not evens:
        raise ValueError(f"anchor window [q/4, q/2] holds no even integer for q={t.q}")
    lo, hi = params.eps_window(j)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        p = tuple(int(evens[i]) for i in rng.integers(0, len(evens), size=params.d))
        eps = tuple(float(v) for v in rng.uniform(lo, hi, size=params.d))
        out.append(SamplePoint(p, t.q, eps))
    return out


_COLUMNS = ("values", "ratios", "factor_mags", "factor_ratios", "boundary_only")


@dataclass(frozen=True, eq=False)
class ClaimReport:
    """One claim over its samples, as columns with one entry per sample.

    values are the magnitudes |S_N f_k(x)|, ratios their normalised
    headline, factor_mags and factor_ratios (samples x d) the per-coordinate
    factors raw and normalised, and boundary_only flags samples with no
    complete residue period.  The columns are read-only views, so the ratio
    summaries stay true to them, and reports compare by identity.
    """

    regime: str
    values: np.ndarray
    ratios: np.ndarray
    factor_mags: np.ndarray
    factor_ratios: np.ndarray
    boundary_only: np.ndarray
    ratio_min: float = field(init=False)
    ratio_max: float = field(init=False)
    ratio_geomean: float = field(init=False)

    def __post_init__(self) -> None:
        for name in _COLUMNS:
            column = np.asarray(getattr(self, name)).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if not len(self.ratios):
            raise ValueError("claim report needs at least one row")
        if np.any(self.ratios <= 0):
            raise ValueError("ratios must be strictly positive")
        object.__setattr__(self, "ratio_min", float(self.ratios.min()))
        object.__setattr__(self, "ratio_max", float(self.ratios.max()))
        object.__setattr__(self, "ratio_geomean", float(np.exp(np.log(self.ratios).mean())))


def claim_regime(params: CounterexampleParams, j: int, k: int) -> str:
    """Three-way case split for levels below j.

    'upper' runs the coherent complete-period estimate, 'first_derivative'
    the non-resonant derivative test, 'second_derivative' the transition
    band between them.
    """
    boundary = j * (params.alpha / (params.d + 1))
    if k >= boundary + j * params.delta:
        return "upper"
    if k <= boundary - j * params.delta:
        return "first_derivative"
    return "second_derivative"


def _block_columns(
    params: CounterexampleParams, k: int, samples: Sequence[SamplePoint], n: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block k at each sample, truncated at N = n (None: the whole block): the
    magnitudes |S_N f_k(x)|, the per-coordinate factor magnitudes
    (samples x d), and flags marking samples with no complete residue period
    (boundary only)."""
    factors = block_factors(params.lam, k, samples, n).tolist()
    mags = np.array([[abs(v) for v in row] for row in factors]).reshape(len(samples), params.d)
    splits = [block_split(params.lam, k, s.q, n) for s in samples]
    boundary = np.array([r <= l for _, _, l, r in splits], dtype=bool)
    return params.amplitude(k) * np.prod(mags, axis=1), mags, boundary


def verify_claim_i(
    params: CounterexampleParams,
    j: int,
    samples: Sequence[SamplePoint],
) -> ClaimReport:
    """Growth claim at level j: |S_N(t) f_j(x)| compared to lam^(j delta),
    for any N > lam^j, which keeps the whole block.

    The factor magnitudes are normalised by lam^(j - j alpha / (2(d+1))).
    """
    lam = float(params.lam)
    target = lam ** (j * params.delta)
    factor_target = lam ** (j - j * params.alpha / (2.0 * (params.d + 1)))
    values, mags, boundary = _block_columns(params, j, samples, None)
    return ClaimReport("coherent", values, values / target, mags, mags / factor_target, boundary)


def verify_claim_ii(
    params: CounterexampleParams,
    j: int,
    k: int,
    samples: Sequence[SamplePoint],
) -> ClaimReport:
    """Control claim for levels k < j, for any N > lam^j, which keeps every
    block k < j whole.

    In the upper regime the ratio is |S_N f_k| / lam^(k delta).  In the
    lower regimes the ratio is the raw magnitude |S_N f_k| (callers fit the
    decay rate across k); factor magnitudes are always reported for the
    derivative-test bounds.
    """
    if not 1 <= k < j:
        raise ValueError(f"need 1 <= k < j, got k={k}, j={j}")
    lam = float(params.lam)
    regime = claim_regime(params, j, k)
    values, mags, boundary = _block_columns(params, k, samples, None)
    ratios = values / lam ** (k * params.delta) if regime == "upper" else values
    return ClaimReport(regime, values, np.maximum(ratios, 1e-300), mags, mags, boundary)


def verify_claim_iii(
    params: CounterexampleParams,
    j: int,
    k: int,
    samples: Sequence[SamplePoint],
    n_list: Sequence[int],
) -> ClaimReport:
    """Decay claim for levels k > j at truncations inside the block.

    ratio = |S_N f_k| / lam^(j delta - c (k - j)) with c = s_alpha/2;
    factor magnitudes are normalised by lam^(j (1 - alpha/(2(d+1)))).  The
    lower offset bound eps_i >= c1 lam^-j is essential here and enforced.
    Entries run over n_list, then over the samples.
    """
    if k <= j:
        raise ValueError(f"need k > j, got k={k}, j={j}")
    lam = float(params.lam)
    lo_n, hi_n = params.lam ** (k - 1), params.lam**k
    if not n_list:
        raise ValueError("need at least one truncation")
    for n in n_list:
        if not lo_n <= n < hi_n:
            raise ValueError(f"truncation {n} outside the block [{lo_n}, {hi_n})")
    eps_floor, _ = params.eps_window(j)
    for s in samples:
        if min(s.eps) < eps_floor * (1 - 1e-12):
            raise ValueError(
                f"offset {min(s.eps):.3g} below the essential lower bound {eps_floor:.3g}"
            )
    c = params.s_alpha / 2.0
    target_factor = lam ** (j * (1.0 - params.alpha / (2.0 * (params.d + 1))))
    denom = lam ** (j * params.delta - c * (k - j))
    columns = [_block_columns(params, k, samples, n) for n in n_list]
    values, mags, boundary = (np.concatenate(col) for col in zip(*columns))
    ratios = np.maximum(values / denom, 1e-300)
    return ClaimReport("incoherent", values, ratios, mags, mags / target_factor, boundary)

