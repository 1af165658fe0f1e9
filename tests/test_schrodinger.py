import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbot_lab import schrodinger
from talbot_lab.counterexample import CounterexampleParams, sample_points, time_set
from talbot_lab.expsum import MODULUS_LIMIT, gauss_sum_magnitudes, gauss_sum_table, quadratic_sum
from talbot_lab.schrodinger import (
    FREQ_LIMIT,
    DirichletBlock,
    FourierData,
    RationalTime,
    SamplePoint,
    block_factor_fast,
    block_split,
    dirichlet_kernel_1d,
    evolve_rational_fast,
    partial_sum_direct,
    quad_block_sum,
    sobolev_norm,
)

TAU = 2 * math.pi


class TestDirichletKernel:
    def test_origin(self):
        for n in (0, 1, 5, 100):
            assert dirichlet_kernel_1d(n, 0.0) == 2 * n + 1

    def test_value_at_pi(self):
        # 1 + e^{i pi} + e^{-i pi} = -1
        assert dirichlet_kernel_1d(1, math.pi) == pytest.approx(-1.0, rel=1e-12)

    def test_symmetry_about_pi(self):
        xs = np.linspace(0.05, math.pi, 40)
        left = dirichlet_kernel_1d(9, xs)
        right = dirichlet_kernel_1d(9, TAU - xs)
        assert np.allclose(left, right, atol=1e-9)

    def test_bounded_by_point_count(self):
        xs = np.linspace(-10, 10, 5001)
        assert np.all(np.abs(dirichlet_kernel_1d(17, xs)) <= 35.0)

    def test_near_singularity_fallback_consistent(self):
        x = 2e-9
        direct = 1.0 + 2.0 * np.cos(np.arange(1, 13) * x).sum()
        assert dirichlet_kernel_1d(12, x) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 12, 1000])
    def test_matches_masked_gathers(self, n):
        # test-local copy of the evaluation that gathered the regular entries by mask
        rng = np.random.default_rng(n)
        xs = np.concatenate([
            [0.0, 2e-9, -3e-9, TAU, -TAU, 2 * TAU, np.nextafter(TAU, 0.0), math.pi],
            rng.uniform(-20.0, 20.0, 997),
            TAU * np.arange(4097) / 4096,
        ])
        s = np.sin(xs / 2.0)
        near = np.abs(s) < 1e-8
        ref = np.empty_like(xs)
        ref[~near] = np.sin((n + 0.5) * xs[~near]) / s[~near]
        k = np.arange(1, n + 1, dtype=float)
        for i in np.nonzero(near)[0]:
            ref[i] = 1.0 + 2.0 * np.cos(k * xs[i]).sum()
        np.clip(ref, -(2 * n + 1), 2 * n + 1, out=ref)
        assert np.count_nonzero(near) >= 6
        assert np.array_equal(dirichlet_kernel_1d(n, xs), ref)
        assert [dirichlet_kernel_1d(n, x) for x in xs[:8]] == list(ref[:8])


def _at(*ys):
    """The point with float coordinates ys, anchored at 0 over q = 1."""
    return SamplePoint((0,) * len(ys), 1, tuple(float(y) / TAU for y in ys))


def _random_data(rng, d, bandwidth, count):
    ks = rng.integers(-bandwidth, bandwidth + 1, size=(count, d))
    ks = np.unique(ks, axis=0)
    coeffs = rng.normal(size=ks.shape[0]) + 1j * rng.normal(size=ks.shape[0])
    return FourierData(d, ks, coeffs)


class TestFourierData:
    def test_drops_zeros_and_finds_bandwidth(self):
        f = FourierData(1, [3, -5, 1], [1.0, 0.0, 2.0])
        assert f.nnz == 2
        assert f.bandwidth == 3

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            FourierData(1, np.array([[1], [1]]), np.array([1.0, 2.0]))

    def test_rejects_duplicate_rows_only(self):
        # rows that share a coordinate are distinct; (1, 2) twice is not
        rows = [[1, 2], [1, 3], [2, 2], [2, 1]]
        assert FourierData(2, rows, np.ones(4)).nnz == 4
        with pytest.raises(ValueError, match="duplicate"):
            FourierData(2, rows + [[1, 2]], np.ones(5))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_frequencies_in_meshgrid_order(self, d):
        block = DirichletBlock(d, 3, 2)
        axis = np.arange(block.n_lo, block.n_hi + 1)
        grids = np.meshgrid(*([axis] * d), indexing="ij")
        expected = np.stack([g.ravel() for g in grids], axis=1)
        assert np.array_equal(block.to_fourier_data().ks, expected)

    def test_block_coefficients(self):
        block = DirichletBlock(1, 16, 2)
        f = block.to_fourier_data()
        assert f.nnz == 240
        assert f.ks.min() == 16 and f.ks.max() == 255

    def test_block_count_cap(self):
        with pytest.raises(ValueError, match="cap"):
            DirichletBlock(2, 16, 4).to_fourier_data()  # 61440^2 > 2^24

    @pytest.mark.parametrize("d", [0, -1])
    def test_dimension_below_one_rejected(self, d):
        with pytest.raises(ValueError, match="at least 1"):
            FourierData(d, np.zeros((0, 1), dtype=np.int64), np.zeros(0))

    def test_squared_norm_reaching_int64_rejected(self):
        # |k|^2 = 8 * 2^60 = 2^63 would wrap in sobolev_norm's int64 sum
        with pytest.raises(ValueError, match="2\\^63"):
            FourierData(8, np.array([[FREQ_LIMIT] * 8]), np.array([1.0]))

    def test_squared_norm_below_int64_accepted(self):
        f = FourierData(7, np.array([[FREQ_LIMIT] * 7, [-FREQ_LIMIT] * 7]), np.array([1.0, 1.0]))
        assert f.bandwidth == FREQ_LIMIT
        expected = math.sqrt(2 * (1 + 7 * FREQ_LIMIT**2))
        assert sobolev_norm(f, 1.0) == pytest.approx(expected, rel=1e-12)


class TestPartialSumDirect:
    def test_constant_datum(self):
        f = FourierData(1, [0], [1.0])
        for t in (RationalTime(1), RationalTime(21), RationalTime(7)):
            assert partial_sum_direct(f, 5, t, [_at(1.234)])[0] == pytest.approx(1.0, rel=1e-12)

    def test_single_mode(self):
        k0 = 3
        f = FourierData(1, [k0], [1.0])
        t, x = RationalTime(30), 1.7
        expected = cmath.exp(1j * (k0 * x - k0 * k0 * t.t))
        assert partial_sum_direct(f, 5, t, [_at(x)])[0] == pytest.approx(expected, rel=1e-12)

    def test_truncation_below_support_is_zero(self):
        f = FourierData(1, [7], [1.0])
        assert partial_sum_direct(f, 5, RationalTime(63), [_at(0.3)])[0] == 0.0

    def test_time_zero_matches_kernel_convolution(self):
        # band-limited quadrature oracle: trapezoid is exact for trig
        # polynomials when the grid beats the product degree
        rng = np.random.default_rng(3)
        f = _random_data(rng, 1, 4, 6)
        n = 4
        x = 0.913

        m = 4 * n + 5
        ys = TAU * np.arange(m) / m
        fvals = np.array(
            [sum(c * cmath.exp(1j * k[0] * y) for k, c in zip(f.ks, f.coeffs)) for y in ys]
        )
        kernel = dirichlet_kernel_1d(n, x - ys)
        conv = (kernel * fvals).mean()
        assert partial_sum_direct(f, n, RationalTime(1), [_at(x)])[0] == pytest.approx(conv, rel=1e-10)

    def test_conjugate_symmetric_data_is_real_at_t0(self):
        rng = np.random.default_rng(11)
        half = {k: complex(rng.normal(), rng.normal()) for k in range(1, 6)}
        coeffs = {0: complex(rng.normal(), 0.0)}
        coeffs.update(half)
        coeffs.update({-k: c.conjugate() for k, c in half.items()})
        f = FourierData(1, list(coeffs), list(coeffs.values()))
        values = partial_sum_direct(f, 6, RationalTime(1), [_at(0.1), _at(2.2), _at(5.5)])
        assert np.all(np.abs(values.imag) <= 1e-10)

    def test_plancherel_on_dft_grid_1d(self):
        rng = np.random.default_rng(23)
        n = 8
        f = _random_data(rng, 1, n, 9)
        t = RationalTime(7)
        m = 2 * n + 1
        grid = [SamplePoint((i,), m, (0.0,)) for i in range(m)]
        mean_sq = np.mean(np.abs(partial_sum_direct(f, n, t, grid)) ** 2)
        assert mean_sq == pytest.approx(float((np.abs(f.coeffs) ** 2).sum()), rel=1e-6)

    def test_plancherel_on_dft_grid_2d(self):
        rng = np.random.default_rng(29)
        n = 3
        f = _random_data(rng, 2, n, 10)
        t = RationalTime(5)
        m = 2 * n + 1
        grid = [SamplePoint((i, j), m, (0.0, 0.0)) for i in range(m) for j in range(m)]
        total = (np.abs(partial_sum_direct(f, n, t, grid)) ** 2).sum()
        assert total / m**2 == pytest.approx(float((np.abs(f.coeffs) ** 2).sum()), rel=1e-6)

    def test_triangle_inequality_bound(self):
        rng = np.random.default_rng(31)
        f = _random_data(rng, 1, 12, 15)
        bound = np.abs(f.coeffs).sum()
        for t in (RationalTime(1), RationalTime(57), RationalTime(9)):
            values = partial_sum_direct(f, 12, t, [_at(0.0), _at(1.0), _at(4.4)])
            assert np.all(np.abs(values) <= bound + 1e-12)


def _reference_direct(f, n, t, x):
    """S_N(t)f(x) at one point: a matrix product and a fresh array for each step."""
    ks, coeffs = f.ks, f.coeffs
    if f.bandwidth > n:
        keep = (np.abs(ks) <= n).all(axis=1)
        ks, coeffs = ks[keep], coeffs[keep]
    if ks.shape[0] == 0:
        return 0.0 + 0.0j
    frac_x = ((ks @ np.asarray(x.p, dtype=np.int64)) % x.q) / x.q
    frac_x = frac_x + ks @ np.asarray(x.eps, dtype=float)
    frac_t = ((ks * ks).sum(axis=1) % t.q) / t.q
    return complex((coeffs * np.exp(2j * math.pi * (frac_x - frac_t))).sum())


def _reference_values(f, n, t, xs):
    return [_reference_direct(f, n, t, x) for x in xs]


class TestBatchedDirect:
    """One call per time equals one reference evaluation per point."""

    def test_block_window_bit_for_bit(self):
        params = CounterexampleParams(d=1, alpha=1.0, lam=16, delta=0.05, kappa=0.25)
        j = 3
        f = DirichletBlock(1, params.lam, j).to_fourier_data()
        times = time_set(params, j)
        assert len(times) > 1
        for t in times:
            xs = sample_points(params, j, t, 8, seed=t.q)
            values = partial_sum_direct(f, params.lam**j, t, xs)
            assert values.dtype == complex and values.shape == (8,)
            assert values.tolist() == _reference_values(f, params.lam**j, t, xs)

    def test_anchors_off_the_time_modulus_bit_for_bit(self):
        rng = np.random.default_rng(41)
        f = _random_data(rng, 1, 300, 200)
        t = RationalTime(12)
        xs = [SamplePoint((5,), 12, (1e-3,)), SamplePoint((3,), 7, (-2e-4,)),
              SamplePoint((999,), 1000, (0.0,)), SamplePoint((1,), 3, (5e-5,)),
              SamplePoint((40,), 96, (1e-6,))]
        assert {x.q for x in xs} != {t.q}
        values = partial_sum_direct(f, 300, t, xs)
        assert values.tolist() == _reference_values(f, 300, t, xs)

    def test_truncation_below_bandwidth_bit_for_bit(self):
        rng = np.random.default_rng(47)
        f = _random_data(rng, 1, 64, 80)
        xs = [SamplePoint((int(p),), 32, (1e-4,)) for p in range(0, 32, 3)]
        for n in (0, 5, 31):
            assert f.bandwidth > n
            values = partial_sum_direct(f, n, RationalTime(32), xs)
            assert values.tolist() == _reference_values(f, n, RationalTime(32), xs)

    def test_two_dimensions_within_rounding(self):
        # k.x summed one coordinate at a time may round differently from a matmul
        rng = np.random.default_rng(53)
        f = _random_data(rng, 2, 200, 400)
        xs = [SamplePoint((int(a), int(b)), 24, (float(e1), float(e2)))
              for a, b, e1, e2 in zip(rng.integers(0, 24, 6), rng.integers(0, 24, 6),
                                      rng.uniform(-1e-3, 1e-3, 6), rng.uniform(-1e-3, 1e-3, 6))]
        xs += [_at(*rng.uniform(0, TAU, 2)) for _ in range(6)]
        for t in (RationalTime(24), RationalTime(22)):
            values = partial_sum_direct(f, 200, t, xs)
            expected = np.array(_reference_values(f, 200, t, xs))
            assert np.all(np.abs(values - expected) <= 1e-12 * np.abs(f.coeffs).sum())

    def test_empty_support_gives_zeros(self):
        xs = [SamplePoint((1,), 8, (0.0,)), _at(0.5)]
        empty = FourierData(1, [], [])
        assert partial_sum_direct(empty, 10, RationalTime(8), xs).tolist() == [0j, 0j]
        above = FourierData(1, [7], [1.0])
        assert partial_sum_direct(above, 5, RationalTime(8), xs).tolist() == [0j, 0j]

    def test_no_points_gives_an_empty_array(self):
        f = FourierData(1, [3], [1.0])
        values = partial_sum_direct(f, 5, RationalTime(8), [])
        assert values.dtype == complex and values.shape == (0,)

    def test_dimension_mismatch_rejected(self):
        f = FourierData(1, [3], [1.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            partial_sum_direct(f, 5, RationalTime(63), [_at(0.1), _at(0.2, 0.3)])

    def test_largest_anchor_modulus_evaluates(self):
        # d N q reaches 2^63 at the last two anchors; each is reduced per coordinate
        ks, coeffs = [[FREQ_LIMIT] * 4], [1.0]
        top = FourierData(4, np.array(ks), np.array(coeffs))
        xs = [SamplePoint((1,) * 4, 5, (0.0,) * 4), SamplePoint((2,) * 4, 9, (0.0,) * 4),
              SamplePoint((1,) * 4, MODULUS_LIMIT, (0.0,) * 4),
              SamplePoint((MODULUS_LIMIT - 1,) * 4, MODULUS_LIMIT, (0.0,) * 4)]
        values = partial_sum_direct(top, FREQ_LIMIT, RationalTime(3), xs)
        for x, value in zip(xs, values):
            assert abs(value - _python_int_sum(ks, coeffs, 3, x.p, x.q, x.eps)) <= 1e-9


class TestResidueTables:
    """Anchors with q <= nnz read each r p_i mod q from residue tables; the bits stay the same."""

    def test_block_datum_bit_for_bit(self):
        params = CounterexampleParams(d=1, alpha=1.0, lam=16, delta=0.05, kappa=0.25)
        f = DirichletBlock(1, 16, 4).to_fourier_data()
        for q in (64, 132, 256):
            t = RationalTime(q)
            xs = sample_points(params, 4, t, 3, seed=q)
            assert q <= f.nnz
            assert partial_sum_direct(f, 16**4, t, xs).tolist() == _reference_values(
                f, 16**4, t, xs)

    def test_anchors_straddling_the_rule_bit_for_bit(self):
        rng = np.random.default_rng(59)
        f = _random_data(rng, 1, 400, 60)
        n = f.nnz
        xs = [SamplePoint((7,), n, (1e-4,)), SamplePoint((8,), n + 1, (-3e-5,)),
              SamplePoint((n - 1,), n, (2e-6,)), SamplePoint((3,), 9, (0.0,)),
              _at(1.25), SamplePoint((4,), 9, (-1e-5,)), SamplePoint((n // 2,), n, (0.0,)),
              SamplePoint((n,), n + 1, (1e-7,))]
        for t in (RationalTime(n), RationalTime(n + 1), RationalTime(15)):
            values = partial_sum_direct(f, 400, t, xs)
            assert values.tolist() == _reference_values(f, 400, t, xs)

    @pytest.mark.parametrize("d", [2, 3])
    def test_straddle_in_higher_dimensions(self, d):
        rng = np.random.default_rng(61 + d)
        f = _random_data(rng, d, 50, 12 * d)
        nnz = f.nnz
        # q_in = nnz reads the residue tables, q_out multiplies the residues out
        q_in, q_out = nnz, nnz + 1
        xs = [SamplePoint(tuple(int(v) for v in rng.integers(0, q, d)), q,
                          tuple(float(e) for e in rng.uniform(-1e-3, 1e-3, d)))
              for q in (q_in, q_out, q_in, 5, 5, q_in)]
        t = RationalTime(q_in)
        values = partial_sum_direct(f, 50, t, xs)
        assert np.all(np.abs(values - _reference_values(f, 50, t, xs))
                      <= 1e-12 * np.abs(f.coeffs).sum())

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_table_fraction_is_the_reduced_product(self, d):
        # q <= 64 reads the residue tables, larger q multiplies the residues out
        rng = np.random.default_rng(71 + d)
        ks = rng.integers(-FREQ_LIMIT, FREQ_LIMIT + 1, size=(64, d))
        frac = np.empty(64)
        for q in (1, 5, 64 // d, 64, 65, 1 << 20, MODULUS_LIMIT - 1, MODULUS_LIMIT):
            for p in (tuple(int(v) for v in rng.integers(0, q, d)), (q - 1,) * d):
                schrodinger._anchored_fraction(np.remainder(ks.T, q),
                                               SamplePoint(p, q, (0.0,) * d), frac)
                expected = [(sum(k_i * p_i for k_i, p_i in zip(k, p)) % q) / q
                            for k in ks.tolist()]
                assert frac.tolist() == expected

    @pytest.mark.parametrize("d", [2, 3])
    def test_higher_dimensions_match_the_python_int_oracle(self, d):
        # frequencies near the limit make every k_i p_i far larger than q
        rng = np.random.default_rng(67 + d)
        n = 40
        offsets = rng.choice(1 << 12, size=n * d, replace=False).reshape(n, d)
        ks = (FREQ_LIMIT - offsets) * rng.choice([-1, 1], (n, d))
        coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = FourierData(d, ks, coeffs)
        for q in (1, 2, 7, n // d):
            p = tuple(int(v) for v in rng.integers(0, q, d))
            eps = tuple(float(v) for v in rng.uniform(-1e-9, 1e-9, d))
            for t_q in (3, MODULUS_LIMIT - 1):
                value = partial_sum_direct(f, FREQ_LIMIT, RationalTime(t_q), [SamplePoint(p, q, eps)])[0]
                expected = _python_int_sum(ks.tolist(), coeffs.tolist(), t_q, p, q, eps)
                assert abs(value - expected) <= 1e-9 * n


class TestFastEvolution:
    def test_degenerate_split_equals_direct(self):
        # block narrower than one residue period: boundary sums only
        t = RationalTime(8)
        a, b, l, r = block_split(2, 2, 8)
        assert r <= l
        fast = block_factor_fast(2, 2, t, 2, 1e-3)
        direct = quad_block_sum(a, b, 8, 2, 1e-3)
        assert fast == pytest.approx(direct, rel=1e-12)

    def test_reference_example(self):
        block = DirichletBlock(1, 16, 2)
        t = RationalTime(16)
        x = SamplePoint((8,), 16, (0.003,))
        fast = evolve_rational_fast(block, t, x)
        direct = partial_sum_direct(block.to_fourier_data(), 16**2, t, [x])[0]
        assert abs(fast - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_random_sweep_matches_direct(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            j = int(rng.integers(1, 4))
            lam = int(rng.choice([8, 16]))
            q = 4 * int(rng.integers(1, max(2, lam**j // 8)))
            p = 2 * int(rng.integers(1, max(2, q // 2)))
            eps = float(rng.uniform(-1, 1)) / (20 * q)
            block = DirichletBlock(1, lam, j)
            t = RationalTime(q)
            x = SamplePoint((p,), q, (eps,))
            fast = evolve_rational_fast(block, t, x)
            direct = partial_sum_direct(block.to_fourier_data(), lam**j, t, [x])[0]
            assert abs(fast - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_partial_block_truncations(self):
        lam, j, q = 16, 3, 32
        t = RationalTime(q)
        for n_hi in (lam**2, lam**2 + 7, 2000, lam**3 - 1):
            fast = block_factor_fast(lam, j, t, 10, 2e-4, n_hi)
            a, b, _, _ = block_split(lam, j, q, n_hi)
            direct = quad_block_sum(a, b, q, 10, 2e-4)
            assert abs(fast - direct) <= 1e-9 * max(1.0, abs(direct))

    def test_anchor_mismatch_rejected(self):
        block = DirichletBlock(1, 16, 2)
        with pytest.raises(ValueError, match="anchor mismatch"):
            evolve_rational_fast(block, RationalTime(16), SamplePoint((8,), 12, (0.0,)))

    def test_coherent_m_sum_magnitude(self):
        # offsets inside the window keep all block phases near zero, so the
        # coherent factor stays within 10% of the full block count
        lam, j = 16, 3
        q = 64
        eps = 1.0 / (150.0 * lam**j)
        a, b, l, r = block_split(lam, j, q)
        m = np.arange(r - l)
        geom = np.exp(2j * np.pi * ((q * eps * (l + m)) % 1.0)).sum()
        assert lam**j * eps <= 1e-2
        assert abs(geom) >= 0.9 * (r - l)


class TestSobolevNorm:
    def test_constant(self):
        f = FourierData(1, [0], [1.0])
        for s in (0.0, 0.5, 2.0):
            assert sobolev_norm(f, s) == 1.0

    def test_single_mode(self):
        f = FourierData(1, [3], [1.0])
        assert sobolev_norm(f, 0.7) == pytest.approx(10.0**0.35, rel=1e-12)

    def test_negative_regularity_rejected(self):
        f = FourierData(1, [0], [1.0])
        with pytest.raises(ValueError):
            sobolev_norm(f, -0.1)


def _python_int_sum(ks, coeffs, t_q, p, q, eps):
    """S_N(2 pi / t_q) f(2 pi (p/q + eps)) with every integer phase in Python ints."""
    total = 0j
    for k, c in zip(ks, coeffs):
        frac = (sum(ki * pi for ki, pi in zip(k, p)) % q) / q
        frac += sum(float(ki) * e for ki, e in zip(k, eps))
        frac -= (sum(ki * ki for ki in k) % t_q) / t_q
        total += c * cmath.exp(2j * math.pi * frac)
    return total


@st.composite
def anchored_inputs(draw):
    """Frequencies near FREQ_LIMIT, moduli up to MODULUS_LIMIT, d = 1..7.

    FourierData admits d <= 7 at N = FREQ_LIMIT, where d N^2 < 2^63.
    """
    d = draw(st.integers(1, 7))
    coord = st.integers(FREQ_LIMIT - (1 << 12), FREQ_LIMIT).flatmap(
        lambda k: st.sampled_from([k, -k])
    )
    ks = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=6, unique=True))
    coeffs = draw(st.lists(st.complex_numbers(max_magnitude=1.0), min_size=len(ks),
                           max_size=len(ks)))
    t_q = draw(st.integers(MODULUS_LIMIT - (1 << 12), MODULUS_LIMIT))
    q = draw(st.one_of(st.integers(1, 1 << 20),
                       st.integers(MODULUS_LIMIT - (1 << 12), MODULUS_LIMIT)))
    # near the top modulus, p_i = q - 1 makes each residue product about 2^61,
    # so at d >= 5 their unreduced sum passes 2^63
    p = draw(st.tuples(*[st.one_of(st.just(q - 1), st.integers(0, q - 1))] * d))
    eps = draw(st.tuples(*[st.floats(-1e-6, 1e-6)] * d))
    return d, ks, coeffs, t_q, p, q, eps


class TestInt64Contract:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(anchored_inputs(), st.integers(0, 1 << 40))
    def test_unreduced_anchor_gives_the_same_value(self, case, m):
        d, ks, coeffs, t_q, p, q, eps = case
        f = FourierData(d, np.array(ks), np.array(coeffs))
        shifted = SamplePoint(tuple(v + q * m for v in p), q, eps)
        assert shifted.p == p
        t = RationalTime(t_q)
        assert partial_sum_direct(f, FREQ_LIMIT, t, [shifted])[0] == partial_sum_direct(
            f, FREQ_LIMIT, t, [SamplePoint(p, q, eps)]
        )[0]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(anchored_inputs())
    def test_agrees_with_python_int_oracle_at_the_limits(self, case):
        d, ks, coeffs, t_q, p, q, eps = case
        f = FourierData(d, np.array(ks), np.array(coeffs))
        value = partial_sum_direct(f, FREQ_LIMIT, RationalTime(t_q), [SamplePoint(p, q, eps)])[0]
        expected = _python_int_sum(ks, coeffs, t_q, p, q, eps)
        assert abs(value - expected) <= 1e-9 * len(ks)

    def test_negative_anchor_is_reduced(self):
        assert SamplePoint((13, -3), 5, (0.0, 0.0)).p == (3, 2)

    def test_products_past_int64_agree_with_python_ints(self):
        # at d = 7 with p_i = q - 1, k.p and the sum of the unreduced residue
        # products pass 2^63; an odd q keeps a wrap from vanishing mod q
        for d in (4, 7):
            ks, coeffs = [[FREQ_LIMIT] * d, [-FREQ_LIMIT] * d], [1.0, 0.5j]
            top = FourierData(d, np.array(ks), np.array(coeffs))
            for q in (MODULUS_LIMIT - 1, MODULUS_LIMIT):
                for p_i in (1, q - 1):
                    x = SamplePoint((p_i,) * d, q, (0.0,) * d)
                    value = partial_sum_direct(top, FREQ_LIMIT, RationalTime(3), [x])[0]
                    assert abs(value - _python_int_sum(ks, coeffs, 3, x.p, x.q, x.eps)) <= 1e-9
        # truncation below the limit leaves no term
        assert partial_sum_direct(top, FREQ_LIMIT - 1, RationalTime(3), [x])[0] == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: FourierData(1, np.array([[FREQ_LIMIT + 1]]), np.array([1.0])),
        lambda: quad_block_sum(0, FREQ_LIMIT + 1, 8, 0, 0.0),
        lambda: RationalTime(0),
        lambda: RationalTime(MODULUS_LIMIT + 1),
        lambda: gauss_sum_table(MODULUS_LIMIT + 1, 1),
        lambda: gauss_sum_magnitudes(MODULUS_LIMIT + 1, 1),
        lambda: SamplePoint((1,), 0, (0.0,)),
        lambda: SamplePoint((1,), MODULUS_LIMIT + 1, (0.0,)),
        lambda: DirichletBlock(1, 2, 31),
    ],
    ids=["frequency", "block_range", "time_zero", "time_modulus", "gauss_table",
         "gauss_magnitudes", "anchor_zero", "anchor_modulus", "block_top"],
)
def test_input_past_a_limit_rejected(call):
    # every guard raises before any array of the limit's size is built
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: SamplePoint((1, 2), 5, (0.0,)), "dimensions differ"),
        (lambda: SamplePoint((), 5, ()), "at least one coordinate"),
        (lambda: FourierData(1, np.array([1, 2]), np.array([1.0])), "counts differ"),
        (lambda: DirichletBlock(0, 16, 1), "d >= 1"),
        (lambda: DirichletBlock(1, 1, 1), "lam >= 2"),
        (lambda: DirichletBlock(1, 16, 0), "j >= 1"),
        # a float is never truncated to the integer below it
        (lambda: SamplePoint((2.5,), 8, (0.0,)), "integer"),
        (lambda: SamplePoint((1,), 7.5, (0.0,)), "integer"),
        (lambda: RationalTime(7.5), "integer"),
        (lambda: FourierData(1, [2.7], [1.0]), "integer"),
        # the kernels under those types take integers only, too
        (lambda: quadratic_sum(-1, 3, 7.5, 0.0, 0, 7), "integer"),
        (lambda: quadratic_sum(-1, 2.5, 8, 0.0, 0, 7), "integer"),
        (lambda: quadratic_sum(-1, 3, 8, 0.0, 0.5, 7), "integer"),
        (lambda: gauss_sum_table(7.5, 1), "integer"),
        (lambda: gauss_sum_table(8, [1, 2.5]), "integer"),
        (lambda: gauss_sum_magnitudes(8.0, 1), "integer"),
        (lambda: quad_block_sum(16, 255, 12, 2.5, 1e-4), "integer"),
        (lambda: CounterexampleParams(d=1, alpha=0.5, lam=16.0, delta=0.1, kappa=0.25),
         "integer"),
    ],
    ids=["anchor_offset_dims", "anchor_empty", "coefficient_count", "block_dimension",
         "block_base", "block_level", "anchor_float_numerator", "anchor_float_modulus",
         "time_float_modulus", "float_frequency", "sum_float_modulus", "sum_float_coefficient",
         "sum_float_range", "table_float_modulus", "table_float_coefficient",
         "magnitudes_float_modulus", "block_sum_float_anchor", "params_float_lam"],
)
def test_malformed_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_numpy_integers_accepted():
    x = SamplePoint((np.int64(10), np.uint8(3)), np.int32(8), (0.0, 0.0))
    assert x.p == (2, 3) and x.q == 8
    t = RationalTime(np.int64(8))
    assert t.q == 8 and type(t.q) is int
    assert quadratic_sum(np.int64(-1), np.int32(3), np.int64(8), 0.0, np.int16(0), np.uint8(7)) \
        == quadratic_sum(-1, 3, 8, 0.0, 0, 7)
    np.testing.assert_array_equal(gauss_sum_table(np.int64(8), np.array([1, 3])),
                                  gauss_sum_table(8, [1, 3]))
    np.testing.assert_array_equal(gauss_sum_table(np.uint16(8), np.int8(3)), gauss_sum_table(8, 3))
    f = FourierData(1, np.array([3, -2], dtype=np.int32), [1.0, 2.0])
    assert f.ks.dtype == np.int64 and f.ks[:, 0].tolist() == [3, -2]
