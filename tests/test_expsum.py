import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest

from talbot_lab.expsum import (
    _CHUNK,
    MODULUS_LIMIT,
    _unit_phasor,
    abel_bound_check,
    gauss_sum_magnitudes,
    gauss_sum_table,
    perturbed_gauss_sum_check,
    quadratic_sum,
    vdc_first_derivative_bound,
)


def _gauss(q, r, p=0):
    """Complete sum over k = 0..q-1 of e^{2 pi i (r k^2 + p k)/q}, term by term."""
    return quadratic_sum(r, p, q, 0.0, 0, q - 1)


class TestGaussSumBruteforce:
    def test_odd_modulus(self):
        assert abs(_gauss(3, 1)) == pytest.approx(math.sqrt(3), rel=1e-12)

    def test_q_four_exact_value(self):
        assert _gauss(4, 1) == pytest.approx(2 + 2j, abs=1e-12)

    def test_q_two_vanishes(self):
        assert abs(_gauss(2, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            quadratic_sum(1, 0, 0, 0.0, 0, 0)
        with pytest.raises(ValueError):
            quadratic_sum(1, 0, 2**31 + 1, 0.0, 0, 0)


class TestGaussSumMagnitude:
    def test_odd_case(self):
        assert gauss_sum_magnitudes(3, 1)[0] == math.sqrt(3)

    def test_two_mod_four_odd_p(self):
        assert gauss_sum_magnitudes(6, 1)[1] == pytest.approx(math.sqrt(12))

    def test_zero_case(self):
        assert gauss_sum_magnitudes(4, 1)[1] == 0.0

    def test_requires_coprime(self):
        with pytest.raises(ValueError, match="gcd"):
            gauss_sum_magnitudes(6, 2)

    def test_agrees_with_bruteforce_small(self):
        for q in range(1, 120):
            for r in (1, q - 1 if q > 1 else 1):
                if math.gcd(r, q) != 1:
                    continue
                closed = gauss_sum_magnitudes(q, r)
                for p in range(0, q, max(1, q // 7)):
                    direct = abs(_gauss(q, r, p))
                    assert direct == pytest.approx(closed[p], abs=1e-8 * max(1, math.sqrt(2 * q)))


class TestGaussSumTable:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            q = int(rng.integers(1, 400))
            r = int(rng.integers(0, q)) or 1
            table = gauss_sum_table(q, r)
            p = int(rng.integers(0, q))
            assert table[p] == pytest.approx(_gauss(q, r, p), abs=1e-10 * max(1, q))


    def test_sequence_of_r_gives_the_single_r_rows(self):
        # each row equals a one-dimensional transform of the complex exponential, bit for bit
        for q in (1, 2, 7, 64, 97, 360, 1000, 1999):
            rs = sorted({1, max(1, q - 1), 3 % q or 1, 2 * q + 5})
            tables = gauss_sum_table(q, rs)
            assert tables.shape == (len(rs), q)
            k = np.arange(q, dtype=np.int64)
            for r, row in zip(rs, tables):
                v = np.exp(2j * math.pi * ((r % q * (k * k % q)) % q / q))
                expected = q * np.fft.ifft(v)
                single = gauss_sum_table(q, r)
                assert single.shape == (q,)
                assert _bits(row) == _bits(single) == _bits(expected)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64).tolist()


class TestUnitPhasor:
    """The cos/sin phasor is the complex exponential bit for bit, zeros included."""

    def test_matches_complex_exp_bit_for_bit(self):
        rng = np.random.default_rng(17)
        mags = np.concatenate([10.0 ** rng.uniform(-9, 9, 200_000), rng.uniform(0, 2, 100_000)])
        frac = mags * rng.choice([-1.0, 1.0], mags.size)
        frac = np.concatenate([frac, [0.0, -0.0, 0.25, -0.5, 0.75, 1.0, -1.0, 1e9, -1e9,
                                      1e-300, -1e-300, 5e-324, -5e-324]])
        expected = np.exp(2j * math.pi * frac)
        assert _bits(_unit_phasor(frac.copy())) == _bits(expected)

    def test_signed_zero_gives_positive_zero_sine(self):
        out = _unit_phasor(np.array([-0.0, 0.0]))
        assert _bits(out) == _bits(np.exp(2j * math.pi * np.array([-0.0, 0.0])))
        assert not np.signbit(out.imag).any()

    def test_writes_into_the_given_buffer(self):
        frac = np.array([0.1, -0.3])
        out = np.empty(2, dtype=complex)
        assert _unit_phasor(frac, out) is out
        assert _bits(frac) == _bits(2 * math.pi * np.array([0.1, -0.3]) + 0.0)


class TestWeylSum:
    """quadratic_sum over arbitrary integer ranges."""

    def test_single_point_interval(self):
        expected = np.exp(2j * np.pi * (((-25 + 10) % 4) / 4 + 5e-4))
        assert quadratic_sum(-1, 2, 4, 1e-4, 5, 5) == pytest.approx(expected, rel=1e-12)
        assert quadratic_sum(-1, 2, 4, 1e-4, 5, 4) == 0

    def test_complete_period_matches_closed_form(self):
        for q, p in [(7, 3), (12, 4), (16, 6), (18, 5)]:
            value = quadratic_sum(-1, p, q, 0.0, 0, q - 1)
            closed = gauss_sum_magnitudes(q, q - 1)[p]
            assert abs(value) == pytest.approx(closed, abs=1e-9 * max(1, math.sqrt(2 * q)))

    def test_extended_precision_oracle(self):
        # term-by-term reference summation at 50 digits
        mpmath.mp.dps = 50
        a2, a1, q, eps = -1, 2, 4, 1e-4
        ref = mpmath.mpc(0)
        for k in range(0, 4):
            f = mpmath.mpf(a2 * k * k + a1 * k) / q + mpmath.mpf(eps) * k
            ref += mpmath.e ** (2j * mpmath.pi * f)
        value = quadratic_sum(a2, a1, q, eps, 0, 3)
        assert abs(value - complex(ref)) <= 1e-12 * abs(complex(ref))

    def test_period_shift_invariance_is_exact(self):
        base = quadratic_sum(-1, 6, 20, 0.0, 0, 19)
        shifted = quadratic_sum(-1, 6, 20, 0.0, 20, 39)
        assert base == shifted  # identical reduced phases, bit for bit

    def test_int64_contract_at_modulus_limit(self):
        # the largest residues make the largest int64 products; a wrapped
        # product would move a term by O(1), far above the tolerance.  A wrap
        # mod 2^64 keeps residues mod 2^31, so the odd q = 2^31 - 1 is the
        # modulus that would expose one.
        eps, lo, hi = 3e-11, MODULUS_LIMIT - 64, MODULUS_LIMIT
        for q in (MODULUS_LIMIT, MODULUS_LIMIT - 1):
            for a2, a1 in itertools.product((q - 1, -1, q - 7), repeat=2):
                ref = sum(
                    cmath.exp(2j * math.pi * ((a2 * k * k + a1 * k) % q / q + (eps * k) % 1.0))
                    for k in range(lo, hi + 1)
                )
                assert abs(quadratic_sum(a2, a1, q, eps, lo, hi) - ref) <= 1e-12

    def test_chunked_range_equals_its_halves(self):
        q, lo, mid, hi = 1_000_003, 5, 1_005, 5 + _CHUNK + 5_000
        whole = quadratic_sum(3, 7, q, 1e-9, lo, hi)
        halves = quadratic_sum(3, 7, q, 1e-9, lo, mid - 1) + quadratic_sum(3, 7, q, 1e-9, mid, hi)
        assert whole == pytest.approx(halves, abs=1e-8)


class TestPerturbedGaussSum:
    def test_unperturbed_q4(self):
        mag, dev = perturbed_gauss_sum_check(4, 0, 0.0)
        assert mag == pytest.approx(2 * math.sqrt(2), rel=1e-12)
        assert dev == pytest.approx(0.0, abs=1e-12)

    def test_unperturbed_q8(self):
        mag, dev = perturbed_gauss_sum_check(8, 2, 0.0)
        assert mag == pytest.approx(4.0, rel=1e-12)
        assert dev == pytest.approx(0.0, abs=1e-12)

    def test_golden_q64(self):
        # brute-force golden, frozen at calibration
        mag, dev = perturbed_gauss_sum_check(64, 16, 1e-4)
        assert mag == pytest.approx(11.339974848131144, rel=1e-12)
        assert dev <= 0.2 * math.sqrt(64)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            perturbed_gauss_sum_check(6, 0, 0.0)
        with pytest.raises(ValueError, match="even"):
            perturbed_gauss_sum_check(8, 1, 0.0)
        with pytest.raises(ValueError, match="smallness"):
            perturbed_gauss_sum_check(8, 2, 0.02)


class TestVanDerCorputBounds:
    def test_first_derivative_values(self):
        assert vdc_first_derivative_bound(1 / 8) == 8.0
        assert vdc_first_derivative_bound(0.5) == 2.0
        assert vdc_first_derivative_bound(0.01) == pytest.approx(100.0)

    def test_first_derivative_domain(self):
        with pytest.raises(ValueError):
            vdc_first_derivative_bound(0.0)
        with pytest.raises(ValueError):
            vdc_first_derivative_bound(0.7)

    def test_calibrated_ratio_over_random_family(self):
        # quadratic phases with |f''| = 2/q against the second-derivative-test
        # bound ratio |I| sqrt(M) + 1/sqrt(M) (ratio = 1, M = 2/q); it holds
        # with a single constant over the family, calibrated once, <= 10
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(300):
            q = int(rng.integers(16, 2048))
            a2 = int(rng.choice([-1, 1]))
            a1 = int(rng.integers(0, q))
            eps = float(rng.uniform(-1, 1)) / (20 * q)
            left = int(rng.integers(0, q))
            length = int(rng.integers(1, q))
            value = abs(quadratic_sum(a2, a1, q, eps, left, left + length))
            bound = length * math.sqrt(2.0 / q) + 1.0 / math.sqrt(2.0 / q)
            worst = max(worst, value / bound)
        assert worst <= 10.0


class TestAbelBound:
    def test_constant_weights(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=12) + 1j * rng.normal(size=12)
        result = abel_bound_check(np.ones(12), b)
        assert result.holds
        prefix = np.concatenate([[0], np.cumsum(b)])
        c = np.abs(prefix[None, :] - prefix[:, None]).max()
        assert result.bound == pytest.approx(c)

    def test_worked_example(self):
        # subinterval sums of (1, -1, 1) peak at 1; lhs = 3/4
        result = abel_bound_check([1.0, 0.5, 0.25], [1.0, -1.0, 1.0])
        assert result.bound == pytest.approx(1.0)
        assert result.lhs == pytest.approx(0.75)
        assert result.holds

    def test_random_instances_never_violate(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            n = int(rng.integers(2, 65))
            a = np.sort(rng.uniform(0, 3, size=n))
            if rng.integers(0, 2):
                a = a[::-1]
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert abel_bound_check(a, b).holds

    def test_increasing_weights_use_right_endpoint(self):
        a = np.array([0.1, 0.5, 2.0])
        b = np.array([1.0, 1.0, 1.0], dtype=complex)
        result = abel_bound_check(a, b)
        assert result.bound == pytest.approx(3.0 * 2.0)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError, match="monotone"):
            abel_bound_check([1.0, 3.0, 2.0], [1.0, 1.0, 1.0])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            abel_bound_check([1.0, -0.5, 0.1], [1.0, 1.0, 1.0])
