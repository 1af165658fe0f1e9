import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from talbot_lab.counterexample import (
    CounterexampleParams,
    claim_regime,
    sample_points,
    time_set,
    verify_claim_i,
    verify_claim_ii,
    verify_claim_iii,
)
from talbot_lab.counterexample import _block_columns
from talbot_lab.experiments.config import covering_cases, load_config
from talbot_lab.schrodinger import (
    DirichletBlock,
    FourierData,
    RationalTime,
    SamplePoint,
    block_factor_fast,
    block_split,
    partial_sum_direct,
)

DESK = dict(d=1, alpha=1.0, lam=16, delta=0.05, kappa=0.25)

# Blow-up demonstration parameters: the decoherence of the first level above
# j needs lam * c1 >= 1/2, which the small-base desk parameters do not give.
BLOWUP = dict(
    d=1, alpha=1.0, lam=256, delta=0.1, kappa=1 / 16,
    c1=Fraction(1, 8), c2=Fraction(1, 4),
)


def block_datum(p, j):
    """The block datum f_j: (lam^j - lam^(j-1))^d coefficients of height p.amplitude(j)."""
    f = DirichletBlock(p.d, p.lam, j).to_fourier_data()
    return FourierData(p.d, f.ks, p.amplitude(j) * f.coeffs)


class TestParams:
    def test_derived_quantities(self):
        p = CounterexampleParams(**DESK)
        assert p.s_alpha == pytest.approx(0.25)
        assert p.tau == pytest.approx(2.0)

    def test_two_dimensional_derivations(self):
        p = CounterexampleParams(d=2, alpha=2.0, lam=8, delta=0.05, kappa=1 / 4)
        assert p.s_alpha == pytest.approx(2 * (3 - 2) / 6)
        assert p.tau == pytest.approx(1.5)

    def test_delta_must_stay_below_s_alpha(self):
        with pytest.raises(ValueError, match="s_alpha"):
            CounterexampleParams(d=1, alpha=1.0, lam=16, delta=0.3, kappa=0.25)

    def test_window_cover_condition(self):
        # lam^(1/tau) = 4 > 1/kappa = 2
        with pytest.raises(ValueError, match="overlap"):
            CounterexampleParams(d=1, alpha=1.0, lam=16, delta=0.05, kappa=0.5)

    def test_offset_order_enforced(self):
        with pytest.raises(ValueError, match="c1 < c2"):
            CounterexampleParams(**DESK, c1=Fraction(1, 50), c2=Fraction(1, 100))


class TestDatumBlock:
    def test_smallest_block_single_coefficient(self):
        p = CounterexampleParams(d=1, alpha=1.0, lam=2, delta=0.05, kappa=0.5)
        f = block_datum(p, 1)
        assert f.nnz == 1
        assert tuple(f.ks[0]) == (1,)
        assert abs(f.coeffs[0]) == pytest.approx(2.0 ** -(p.s_alpha + 0.5 - p.delta))

    def test_block_count_and_range(self):
        p = CounterexampleParams(**DESK)
        f = block_datum(p, 2)
        assert f.nnz == 240
        assert f.ks.min() == 16 and f.ks.max() == 255

    def test_count_formula_across_parameters(self):
        for d, lam, j in [(1, 4, 2), (2, 4, 2), (1, 8, 3), (2, 8, 2)]:
            p = CounterexampleParams(d=d, alpha=float(d), lam=lam, delta=0.01, kappa=1 / 8)
            assert block_datum(p, j).nnz == (lam**j - lam ** (j - 1)) ** d

    def test_spectral_disjointness(self):
        p = CounterexampleParams(**DESK)
        supports = [set(map(tuple, block_datum(p, j).ks)) for j in (1, 2, 3)]
        assert supports[0] & supports[1] == set()
        assert supports[1] & supports[2] == set()


class TestTimeSet:
    def test_window_example(self):
        p = CounterexampleParams(**DESK)
        assert [t.q for t in time_set(p, 2)] == [4, 8, 12, 16]

    def test_all_divisible_by_four(self):
        p = CounterexampleParams(**DESK)
        for j in (1, 2, 3, 4):
            assert all(t.q % 4 == 0 for t in time_set(p, j))

    def test_empty_window_is_named(self):
        # [kappa * 3, 3] = [1, 3] holds no multiple of 4
        p = CounterexampleParams(d=1, alpha=1.0, lam=9, delta=0.05, kappa=1 / 3)
        with pytest.raises(ValueError, match="cover condition"):
            time_set(p, 1)


def integer_q_window(lam, e, kappa):
    """The level window [kappa top, top] of top = lam^e, e = a/b, decided in
    integers: q <= top iff q^b <= lam^a, and q >= kappa top iff (q/kappa)^b >= lam^a."""
    a, b = e.numerator, e.denominator
    hi = next(q for q in itertools.count(round(lam ** (a / b)) + 1, -1) if q**b <= lam**a)
    lo = next(
        q for q in itertools.count(max(1, round(kappa * lam ** (a / b)) - 1))
        if (q / kappa) ** b >= lam**a
    )
    return range(max(4, lo + (-lo) % 4), hi + 1, 4)


class TestQWindow:
    @pytest.mark.parametrize("j", [11, 13, 14])
    def test_exact_top_kept_at_high_levels(self, j):
        # top = 64^(j/3) = 4^j exactly, and the float power misses it by a few
        # ulps: 4194303.999999997 at j = 11
        p = CounterexampleParams(d=1, alpha=2 / 3, lam=64, delta=0.01, kappa=1 / 4)
        assert p.q_window(j) == integer_q_window(64, Fraction(j, 3), Fraction(1, 4))

    def test_window_below_the_modulus_limit_is_exact(self):
        # top = 64^(10/2) = 2^30: the slack stays under a thousandth of a denominator
        p = CounterexampleParams(d=1, alpha=1.0, lam=64, delta=0.01, kappa=1 / 8)
        assert p.q_window(10) == integer_q_window(64, Fraction(10, 2), Fraction(1, 8))

    @pytest.mark.parametrize("j", [11, 14, 15])
    def test_window_past_the_modulus_limit_raises(self, j):
        # past 2^31 the slack could take one q too many: 4,398,046,511,108 at j = 14
        p = CounterexampleParams(d=1, alpha=1.0, lam=64, delta=0.01, kappa=1 / 8)
        with pytest.raises(ValueError, match=rf"^level {j} of alpha = 1.0, lam = 64, "
                           r"kappa = 0.125: modulus q = \d+ out of range"):
            p.q_window(j)

    def test_shipped_cases_match_the_integer_window(self):
        cases = covering_cases(load_config("dimension", None)["cov_cases"])
        for alpha, lam, kappa in cases + [(Fraction(1), 16, Fraction(1, 4))]:
            p = CounterexampleParams(d=1, alpha=float(alpha), lam=lam, delta=0.01,
                                     kappa=float(kappa))
            for j in range(9):
                assert p.q_window(j) == integer_q_window(lam, j * alpha / 2, kappa), (alpha, j)


class TestSamplePoints:
    def test_anchor_window_q8(self):
        p = CounterexampleParams(**DESK)
        pts = sample_points(p, 2, RationalTime(8), 40, seed=3)
        assert {pt.p[0] for pt in pts} <= {2, 4}

    def test_offsets_inside_window(self):
        p = CounterexampleParams(**DESK)
        lo, hi = p.eps_window(3)
        pts = sample_points(p, 3, RationalTime(16), 50, seed=4)
        assert all(lo <= pt.eps[0] <= hi for pt in pts)

    def test_deterministic_in_seed(self):
        p = CounterexampleParams(**DESK)
        a = sample_points(p, 2, RationalTime(12), 10, seed=9)
        b = sample_points(p, 2, RationalTime(12), 10, seed=9)
        assert a == b

    def test_empty_anchor_window_rejected(self):
        p = CounterexampleParams(**DESK)
        with pytest.raises(ValueError, match="no even integer"):
            sample_points(p, 2, RationalTime(2), 1, seed=0)


class TestClaimGrowth:
    def test_factor_ratios_in_frozen_band(self):
        p = CounterexampleParams(**DESK)
        for j in (2, 3):
            for t in time_set(p, j):
                rep = verify_claim_i(p, j, sample_points(p, j, t, 8, seed=5 * j))
                fr = rep.factor_ratios
                assert np.all((1 / 8 <= fr) & (fr <= 8))  # measured range [1.32, 2.66]

    def test_growth_slope_matches_delta(self):
        p = CounterexampleParams(**DESK)
        from talbot_lab.measures import exponent_fit

        pts = []
        for j in (2, 3, 4):
            t = time_set(p, j)[-1]
            rep = verify_claim_i(p, j, sample_points(p, j, t, 12, seed=7))
            pts.append((16.0**j, rep.ratio_geomean * 16.0 ** (j * p.delta)))
        fit = exponent_fit(pts)
        assert abs(fit.slope - p.delta) / p.delta <= 0.25

    def test_degenerate_block_flagged_boundary_only(self):
        p = CounterexampleParams(d=1, alpha=1.0, lam=2, delta=0.05, kappa=0.5 - 1e-9)
        x = SamplePoint((2,), 8, (1e-3,))
        rep = verify_claim_i(p, 2, [x])
        assert rep.boundary_only.tolist() == [True]

    def test_coherence_window_invariant(self):
        # every claim-(i) sample keeps all complete-period phases small
        p = CounterexampleParams(**DESK)
        for j in (2, 3):
            for t in time_set(p, j)[-2:]:
                for s in sample_points(p, j, t, 8, seed=13):
                    _, _, _, r = block_split(p.lam, j, s.q)
                    assert r * s.q * max(s.eps) < 1 / 100

    def test_n_stability(self):
        p = CounterexampleParams(**DESK)
        f = block_datum(p, 2)
        t = RationalTime(16)
        x = SamplePoint((4,), 16, (2e-4,))
        assert partial_sum_direct(f, 16**2, t, [x])[0] == partial_sum_direct(f, 16**3, t, [x])[0]


class TestClaimBelow:
    def test_regime_classification(self):
        p = CounterexampleParams(**DESK)
        assert claim_regime(p, 3, 1) == "first_derivative"
        assert claim_regime(p, 3, 2) == "upper"
        assert claim_regime(p, 4, 2) == "second_derivative"

    def test_upper_regime_ratios_below_frozen_cap(self):
        p = CounterexampleParams(**DESK)
        for j, k in [(3, 2), (4, 3)]:
            t = time_set(p, j)[-1]
            rep = verify_claim_ii(p, j, k, sample_points(p, j, t, 8, seed=3 * j))
            assert rep.regime == "upper"
            assert rep.ratio_max <= 4.0  # frozen: measured max 1.33

    def test_extended_estimate_band(self):
        p = CounterexampleParams(**DESK)
        t = time_set(p, 4)[-1]
        j, k = 4, 3
        rep = verify_claim_ii(p, j, k, sample_points(p, j, t, 8, seed=21))
        extended = float(p.lam) ** (k * p.delta - (j - k) * p.d * p.alpha / (2.0 * (p.d + 1)))
        assert np.all((1 / 8 <= rep.values / extended) & (rep.values / extended <= 8))

    def test_derivative_regime_factor_sums_bounded(self):
        from talbot_lab.expsum import vdc_first_derivative_bound

        p = CounterexampleParams(**DESK)
        cap = 8 * vdc_first_derivative_bound(1 / 8)
        for j in (3, 4):
            t = time_set(p, j)[-1]
            rep = verify_claim_ii(p, j, 1, sample_points(p, j, t, 8, seed=4 * j))
            assert rep.regime == "first_derivative"
            assert np.all(rep.factor_mags <= cap)

    def test_consistency_with_growth_code_path(self):
        # shared samples: the k-level magnitudes must agree between the two
        # verification entry points to rounding error
        p = CounterexampleParams(**DESK)
        j, k = 4, 3
        t = time_set(p, j)[-1]
        samples = sample_points(p, j, t, 6, seed=77)
        rep_ii = verify_claim_ii(p, j, k, samples)
        rep_i = verify_claim_i(p, k, samples)
        lam = float(p.lam)
        v_ii = rep_ii.ratios * lam ** (k * p.delta)
        v_i = rep_i.ratios * lam ** (k * p.delta)
        assert v_ii == pytest.approx(v_i, rel=1e-12)

    def test_k_range_validated(self):
        p = CounterexampleParams(**DESK)
        with pytest.raises(ValueError, match="1 <= k < j"):
            verify_claim_ii(p, 3, 3, [SamplePoint((4,), 16, (1e-4,))])


class TestClaimAbove:
    def test_factor_ratios_below_frozen_cap(self):
        p = CounterexampleParams(**DESK)
        for j in (2, 3):
            t = time_set(p, j)[-1]
            samples = sample_points(p, j, t, 6, seed=6 * j)
            for k in (j + 1, j + 2):
                lo, hi = p.lam ** (k - 1), p.lam**k
                rep = verify_claim_iii(p, j, k, samples, [lo, hi - 1])
                assert np.all(rep.factor_ratios <= 256.0)  # frozen: measured <= 148

    def test_decay_rate_positive(self):
        p = CounterexampleParams(**DESK)
        j = 2
        t = time_set(p, j)[-1]
        samples = sample_points(p, j, t, 6, seed=14)
        mags = {}
        for k in (j + 1, j + 2):
            rep = verify_claim_iii(p, j, k, samples, [p.lam**k - 1])
            mags[k] = rep.ratio_geomean * 16.0 ** (j * p.delta - (p.s_alpha / 2) * (k - j))
        c = (math.log(mags[j + 1]) - math.log(mags[j + 2])) / math.log(16.0)
        assert c >= p.s_alpha / 4

    def test_truncation_below_block_is_exactly_zero(self):
        p = CounterexampleParams(**DESK)
        f = block_datum(p, 3)
        x = SamplePoint((4,), 16, (1e-4,))
        value = partial_sum_direct(f, p.lam**2 - 1, RationalTime(16), [x])
        assert value[0] == 0.0

    def test_offsets_below_window_rejected(self):
        p = CounterexampleParams(**DESK)
        bad = SamplePoint((4,), 16, (1e-9,))
        with pytest.raises(ValueError, match="lower bound"):
            verify_claim_iii(p, 2, 3, [bad], [p.lam**2])

    def test_truncations_outside_block_rejected(self):
        p = CounterexampleParams(**DESK)
        good = sample_points(p, 2, RationalTime(16), 1, seed=1)
        with pytest.raises(ValueError, match="outside the block"):
            verify_claim_iii(p, 2, 3, good, [p.lam**3])


def _rowwise(p, k, samples, n):
    """(value, factor magnitudes, boundary flag) for each sample, one sample
    at a time: the per-row formulas the column reports must reproduce."""
    out = []
    for s in samples:
        _, _, l, r = block_split(p.lam, k, s.q, n)
        mags = np.array(
            [abs(block_factor_fast(p.lam, k, RationalTime(s.q), p_i, eps_i, n))
             for p_i, eps_i in zip(s.p, s.eps)]
        )
        out.append((p.amplitude(k) * float(np.prod(mags)), mags, r <= l))
    return out


class TestClaimColumnsKeepEveryBit:
    """Each column equals, bit for bit, the value the per-row evaluation gave."""

    PARAMS = (CounterexampleParams(**DESK),
              CounterexampleParams(d=2, alpha=2.0, lam=8, delta=0.05, kappa=1 / 4))

    @staticmethod
    def _assert_rows(rep, rows, ratio, factor_norm):
        assert len(rep.values) == len(rows)
        for i, (value, mags, boundary) in enumerate(rows):
            assert rep.values[i] == value
            assert rep.ratios[i] == ratio(value)
            assert np.array_equal(rep.factor_mags[i], mags)
            assert np.array_equal(rep.factor_ratios[i], mags / factor_norm)
            assert rep.boundary_only[i] == boundary

    def test_claim_i(self):
        for p in self.PARAMS:
            lam = float(p.lam)
            for j in (2, 3):
                samples = sample_points(p, j, time_set(p, j)[-1], 8, seed=3 * j)
                n = p.lam**j + 1  # any N > lam^j keeps the block whole
                rep = verify_claim_i(p, j, samples)
                target = lam ** (j * p.delta)
                self._assert_rows(
                    rep, _rowwise(p, j, samples, n), lambda v: v / target,
                    lam ** (j - j * p.alpha / (2.0 * (p.d + 1))),
                )
                assert rep.regime == "coherent"

    def test_claim_ii_both_regimes(self):
        for p, (j_up, k_up), (j_fd, k_fd) in zip(self.PARAMS, [(3, 2), (4, 3)], [(3, 1), (3, 1)]):
            lam = float(p.lam)
            for j, k, regime in ((j_up, k_up, "upper"), (j_fd, k_fd, "first_derivative")):
                samples = sample_points(p, j, time_set(p, j)[-1], 8, seed=11 * j + k)
                n = p.lam**j + 1
                rep = verify_claim_ii(p, j, k, samples)
                assert rep.regime == regime
                rows = _rowwise(p, k, samples, n)
                if regime == "upper":
                    self._assert_rows(rep, rows, lambda v: max(v / lam ** (k * p.delta), 1e-300), 1)
                else:
                    self._assert_rows(rep, rows, lambda v: max(v, 1e-300), 1)

    def test_claim_iii_runs_over_truncations_then_samples(self):
        for p in self.PARAMS:
            lam = float(p.lam)
            j, k = 2, 3
            samples = sample_points(p, j, time_set(p, j)[-1], 6, seed=14)
            lo, hi = p.lam ** (k - 1), p.lam**k
            n_list = [lo, (lo + hi) // 2, hi - 1]
            rep = verify_claim_iii(p, j, k, samples, n_list)
            denom = lam ** (j * p.delta - p.s_alpha / 2.0 * (k - j))
            rows = [row for n in n_list for row in _rowwise(p, k, samples, n)]
            self._assert_rows(
                rep, rows, lambda v: max(v / denom, 1e-300),
                lam ** (j * (1.0 - p.alpha / (2.0 * (p.d + 1)))),
            )
            assert rep.regime == "incoherent"

    def test_columns_are_read_only(self):
        p = CounterexampleParams(**DESK)
        samples = sample_points(p, 3, time_set(p, 3)[-1], 4, seed=5)
        rep = verify_claim_ii(p, 3, 2, samples)
        # claim (ii) shows one array as raw and normalised factors
        assert np.shares_memory(rep.factor_mags, rep.factor_ratios)
        for column in (rep.values, rep.ratios, rep.factor_mags, rep.factor_ratios,
                       rep.boundary_only):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        # reports compare by identity, not elementwise
        assert rep == rep
        assert rep != verify_claim_ii(p, 3, 2, samples)
        assert {rep: 1}[rep] == 1

    def test_empty_inputs_rejected(self):
        p = CounterexampleParams(**DESK)
        with pytest.raises(ValueError, match="at least one row"):
            verify_claim_i(p, 2, [])
        with pytest.raises(ValueError, match="at least one truncation"):
            verify_claim_iii(p, 2, 3, sample_points(p, 2, RationalTime(16), 1, seed=1), [])


class TestBlowup:
    def test_triangle_ledger_on_accepted_samples(self):
        # the off-level blocks stay below half of the main term
        p = CounterexampleParams(**BLOWUP)
        n = p.lam**3
        for j in (2, 3):
            t = time_set(p, j)[-1]
            samples = sample_points(p, j, t, 6, seed=19 * j)
            main = _block_columns(p, j, samples, n)[0]
            rest = sum(_block_columns(p, k, samples, n)[0] for k in range(1, 4) if k != j)
            assert np.all(rest <= 0.5 * main)

    def test_block_sobolev_norm_tracks_exponent(self):
        # ||f_j||_{H^s} against lam^(-j(s_alpha - delta - s)): the quotient
        # stays inside [1/4, 4] across the first five levels
        from talbot_lab.schrodinger import sobolev_norm

        p = CounterexampleParams(**DESK)
        s = 0.15
        for j in range(1, 6):
            f = block_datum(p, j)
            ratio = sobolev_norm(f, s) / (16.0 ** (-j * (p.s_alpha - p.delta - s)))
            assert 0.25 <= ratio <= 4.0

