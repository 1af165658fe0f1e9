"""Blow-up construction for the truncated periodic flow.

Lacunary product data f_j, reciprocal-time windows T^j, anchored sample
families X_t^j, and numerical verification of the three magnitude claims
(growth at level j, control below j, decay above j) together with the
blow-up trajectory t_j -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .measures import ExponentFit, exponent_fit
from .schrodinger import (
    DirichletBlock,
    FourierData,
    RationalTime,
    SamplePoint,
    block_factor_fast,
    block_split,
)


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
        if self.lam < 2 or int(self.lam) != self.lam:
            raise ValueError(f"lam must be an integer >= 2, got {self.lam}")
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


def datum_block(params: CounterexampleParams, j: int, max_coeffs: int = 1 << 24) -> FourierData:
    """Block datum f_j with (lam^j - lam^(j-1))^d equal coefficients."""
    block = DirichletBlock(params.d, params.lam, j)
    return block.to_fourier_data(params.amplitude(j), max_coeffs=max_coeffs)


def time_set(params: CounterexampleParams, j: int) -> list[RationalTime]:
    """All times 2 pi / q with q = 0 (mod 4) in the level-j window."""
    top = float(params.lam) ** (j / params.tau)
    lo = int(math.ceil(params.kappa * top - 1e-9))
    hi = int(math.floor(top + 1e-9))
    qs = [q for q in range(lo + (-lo) % 4 if lo % 4 else lo, hi + 1, 4) if q >= 4]
    if not qs:
        raise ValueError(
            f"no q = 0 (mod 4) in [{params.kappa * top:.2f}, {top:.2f}] at level {j}; "
            f"the cover condition lam^(1/tau) <= 1/kappa needs a larger window"
        )
    return [RationalTime(q) for q in qs]


def _even_anchor_range(q: int) -> list[int]:
    """Even integers in the closed anchor window [q/4, q/2]."""
    lo = -((-q) // 4)  # ceil(q/4)
    hi = q // 2
    start = lo + (lo % 2)
    return list(range(start, hi + 1, 2))


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
    evens = _even_anchor_range(t.q)
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


@dataclass(frozen=True)
class ClaimRow:
    """One verified sample: the headline ratio plus per-coordinate factors."""

    j: int
    k: int
    n: int
    q: int
    x: tuple[float, ...]
    ratio: float
    factor_ratios: tuple[float, ...] = ()
    factor_mags: tuple[float, ...] = ()
    regime: str = ""
    boundary_only: bool = False
    extra: float = float("nan")


@dataclass(frozen=True)
class ClaimReport:
    claim_id: str
    rows: tuple[ClaimRow, ...]
    ratio_min: float = field(init=False)
    ratio_max: float = field(init=False)
    ratio_geomean: float = field(init=False)
    fit: ExponentFit | None = None

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("claim report needs at least one row")
        ratios = np.array([r.ratio for r in self.rows])
        if np.any(ratios <= 0):
            raise ValueError("ratios must be strictly positive")
        object.__setattr__(self, "ratio_min", float(ratios.min()))
        object.__setattr__(self, "ratio_max", float(ratios.max()))
        object.__setattr__(self, "ratio_geomean", float(np.exp(np.log(ratios).mean())))


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


def _block_eval(
    params: CounterexampleParams, k: int, sample: SamplePoint, n: int
) -> tuple[np.ndarray, bool]:
    """Per-coordinate factor magnitudes of block k at the sample, plus a
    flag marking samples with no complete residue period (boundary only)."""
    t = RationalTime(sample.q)
    _, _, l, r = block_split(params.lam, k, sample.q, n)
    mags = np.array(
        [
            abs(block_factor_fast(params.lam, k, t, p_i, eps_i, n))
            for p_i, eps_i in zip(sample.p, sample.eps)
        ]
    )
    return mags, r <= l


def verify_claim_i(
    params: CounterexampleParams,
    j: int,
    samples: Sequence[SamplePoint],
    n: int,
) -> ClaimReport:
    """Growth claim at level j: |S_N(t) f_j(x)| compared to lam^(j delta).

    Rows carry the headline ratio and the per-coordinate factor magnitudes
    normalized by lam^(j - j alpha / (2(d+1))).
    """
    if n <= params.lam**j:
        raise ValueError(f"need N > lam^j = {params.lam ** j}, got N={n}")
    lam = float(params.lam)
    target = lam ** (j * params.delta)
    factor_target = lam ** (j - j * params.alpha / (2.0 * (params.d + 1)))
    rows = []
    for s in samples:
        mags, boundary = _block_eval(params, j, s, n)
        value = params.amplitude(j) * float(np.prod(mags))
        rows.append(
            ClaimRow(
                j=j,
                k=j,
                n=n,
                q=s.q,
                x=tuple(float(v) for v in s.x),
                ratio=value / target,
                factor_ratios=tuple(mags / factor_target),
                factor_mags=tuple(mags),
                regime="coherent",
                boundary_only=boundary,
            )
        )
    return ClaimReport("i", tuple(rows))


def verify_claim_ii(
    params: CounterexampleParams,
    j: int,
    k: int,
    samples: Sequence[SamplePoint],
    n: int,
) -> ClaimReport:
    """Control claim for levels k < j.

    In the upper regime the ratio is |S_N f_k| / lam^(k delta) and `extra`
    carries the sharper comparison against
    lam^(k delta - (j-k) d alpha/(2(d+1))).  In the lower regimes the ratio
    is the raw magnitude |S_N f_k| (callers fit the decay rate across k);
    factor magnitudes are always reported for the derivative-test bounds.
    """
    if not 1 <= k < j:
        raise ValueError(f"need 1 <= k < j, got k={k}, j={j}")
    if n <= params.lam**j:
        raise ValueError(f"need N > lam^j = {params.lam ** j}, got N={n}")
    lam = float(params.lam)
    regime = claim_regime(params, j, k)
    rows = []
    for s in samples:
        mags, boundary = _block_eval(params, k, s, n)
        value = params.amplitude(k) * float(np.prod(mags))
        if regime == "upper":
            ratio = value / lam ** (k * params.delta)
            extended = lam ** (
                k * params.delta
                - (j - k) * params.d * params.alpha / (2.0 * (params.d + 1))
            )
            extra = value / extended
        else:
            ratio = value
            extra = float("nan")
        rows.append(
            ClaimRow(
                j=j,
                k=k,
                n=n,
                q=s.q,
                x=tuple(float(v) for v in s.x),
                ratio=max(ratio, 1e-300),
                factor_ratios=tuple(mags),
                factor_mags=tuple(mags),
                regime=regime,
                boundary_only=boundary,
                extra=extra,
            )
        )
    return ClaimReport("ii", tuple(rows))


def verify_claim_iii(
    params: CounterexampleParams,
    j: int,
    k: int,
    samples: Sequence[SamplePoint],
    n_list: Sequence[int],
    c: float | None = None,
) -> ClaimReport:
    """Decay claim for levels k > j at truncations inside the block.

    ratio = |S_N f_k| / lam^(j delta - c (k - j)) with default c = s_alpha/2;
    factor magnitudes are normalised by lam^(j (1 - alpha/(2(d+1)))).  The
    lower offset bound eps_i >= c1 lam^-j is essential here and enforced.
    """
    if k <= j:
        raise ValueError(f"need k > j, got k={k}, j={j}")
    lam = float(params.lam)
    lo_n, hi_n = params.lam ** (k - 1), params.lam**k
    for n in n_list:
        if not lo_n <= n < hi_n:
            raise ValueError(f"truncation {n} outside the block [{lo_n}, {hi_n})")
    eps_floor, _ = params.eps_window(j)
    for s in samples:
        if min(s.eps) < eps_floor * (1 - 1e-12):
            raise ValueError(
                f"offset {min(s.eps):.3g} below the essential lower bound {eps_floor:.3g}"
            )
    if c is None:
        c = params.s_alpha / 2.0
    target_factor = lam ** (j * (1.0 - params.alpha / (2.0 * (params.d + 1))))
    rows = []
    for n in n_list:
        for s in samples:
            mags, boundary = _block_eval(params, k, s, n)
            value = params.amplitude(k) * float(np.prod(mags))
            denom = lam ** (j * params.delta - c * (k - j))
            rows.append(
                ClaimRow(
                    j=j,
                    k=k,
                    n=n,
                    q=s.q,
                    x=tuple(float(v) for v in s.x),
                    ratio=max(value / denom, 1e-300),
                    factor_ratios=tuple(mags / target_factor),
                    factor_mags=tuple(mags),
                    regime="incoherent",
                    boundary_only=boundary,
                )
            )
    return ClaimReport("iii", tuple(rows))


def full_datum_value(
    params: CounterexampleParams, j_max: int, t: RationalTime, x: SamplePoint, n: int
) -> complex:
    """S_N(t) applied to the truncated datum sum of f_1..f_jmax, by blocks."""
    total = 0.0 + 0.0j
    for k in range(1, j_max + 1):
        if params.lam ** (k - 1) > n:
            break
        factor = 1.0 + 0.0j
        for p_i, eps_i in zip(x.p, x.eps):
            factor *= block_factor_fast(params.lam, k, t, p_i, eps_i, n)
        total += params.amplitude(k) * factor
    return total


def make_blowup_ladder(
    params: CounterexampleParams, j_max: int, seed: int
) -> list[SamplePoint]:
    """One sample per level j = 1..j_max, each drawn from its own window at
    the top-of-window time (matched relative position across levels)."""
    ladder = []
    for j in range(1, j_max + 1):
        t = time_set(params, j)[-1]
        ladder.append(sample_points(params, j, t, 1, seed + j)[0])
    return ladder


def blowup_trajectory(
    params: CounterexampleParams,
    ladder: Sequence[SamplePoint],
    j_max: int,
) -> list[tuple[int, float, float]]:
    """Magnitude of the full truncated datum along the ladder times.

    Entry j evaluates S_N(t_j) (f_1 + ... + f_jmax) at the level-j sample,
    with N = lam^jmax covering every block.
    """
    n = params.lam**j_max
    out = []
    for j, x in enumerate(ladder, start=1):
        t = RationalTime(x.q)
        val = abs(full_datum_value(params, j_max, t, x, n))
        out.append((j, t.t, val))
    return out


def trajectory_growth_fit(params: CounterexampleParams, traj: Sequence[tuple[int, float, float]]) -> ExponentFit:
    """Fit of log-magnitude against level: slope is the growth exponent in
    units of ln(lam), to compare with delta."""
    samples = [(float(params.lam) ** j, val) for j, _, val in traj]
    return exponent_fit(samples)
