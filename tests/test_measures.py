import math
import tracemalloc

import numpy as np
import pytest

from talbot_lab import measures
from talbot_lab.measures import (
    _BLOCK_ENTRIES,
    DEFAULT_FROSTMAN_RADII,
    AtomicMeasure,
    TimeSamplingPlan,
    cantor_measure,
    carleson_l2_ratio,
    convolve_dirichlet_sup,
    dirichlet_abs_max_envelope,
    dirichlet_l1,
    exponent_fit,
    frostman_constant,
    maximal_lp_norm,
    transference_ratio,
    uniform_measure,
)
from talbot_lab.schrodinger import FourierData, RationalTime, dirichlet_kernel_1d

TAU = 2 * math.pi


def dirichlet_datum(n):
    ks = np.arange(-n, n + 1, dtype=np.int64).reshape(-1, 1)
    return FourierData(1, ks, np.ones(ks.shape[0], dtype=complex))


class TestCantorMeasure:
    def test_similarity_dimension(self):
        mu = cantor_measure(1 / 3, 6)
        assert mu.alpha == pytest.approx(math.log(2) / math.log(3))

    def test_level_zero_is_point_mass(self):
        mu = cantor_measure(1 / 3, 0)
        assert mu.n_atoms == 1

    def test_probability_mass_is_exact(self):
        mu = cantor_measure(1 / 3, 10)
        assert mu.masses.sum() == 1.0  # dyadic masses sum exactly

    def test_atom_count(self):
        assert cantor_measure(0.4, 8).n_atoms == 256

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            cantor_measure(0.5, 3)
        with pytest.raises(ValueError):
            cantor_measure(1 / 3, 30)


class TestAtomicMeasureValue:
    def test_compares_by_identity(self):
        mu, nu = cantor_measure(1 / 3, 3), cantor_measure(1 / 3, 3)
        assert mu == mu and mu != nu

    def test_hashable(self):
        mu = cantor_measure(1 / 3, 3)
        assert hash(mu) == hash(mu) and {mu: 1}[mu] == 1

    def test_columns_are_read_only_copies(self):
        pos = np.array([0.5, 1.5, 2.5])
        masses = np.array([0.25, 0.25, 0.5])
        mu = AtomicMeasure(1, pos, masses, 0.5)
        c_alpha = mu.c_alpha
        for column in (mu.positions, mu.masses):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        # the caller's arrays stay writable and are not shared
        masses[0] = 0.75
        pos[0] = 0.1
        assert mu.masses[0] == 0.25 and mu.positions[0, 0] == 0.5
        assert mu.c_alpha == c_alpha == frostman_constant(mu, DEFAULT_FROSTMAN_RADII)


class TestFrostman:
    def test_uniform_measure_close_to_inverse_pi(self):
        mu = uniform_measure(4096)
        radii = [TAU * 2.0**-m for m in range(2, 9)]
        assert frostman_constant(mu, radii) == pytest.approx(1 / math.pi, rel=0.1)

    def test_point_mass_alpha_zero(self):
        mu = AtomicMeasure(1, np.array([[1.0]]), np.array([1.0]), 0.0)
        assert frostman_constant(mu, [0.1, 0.5, 1.0]) == 1.0

    def test_middle_thirds_golden(self):
        # frozen at calibration; stable across construction depth
        values = {}
        for level in (10, 11, 12):
            mu = cantor_measure(1 / 3, level)
            radii = [TAU * 3.0**-m for m in range(1, level + 1)]
            values[level] = frostman_constant(mu, radii)
        assert values[12] == pytest.approx(0.627241, abs=1e-3)
        assert max(values.values()) / min(values.values()) <= 1.1

    def test_scales_linearly_with_mass(self):
        mu = cantor_measure(1 / 3, 6)
        doubled = AtomicMeasure(mu.d, mu.positions, 2.0 * mu.masses, mu.alpha)
        radii = [TAU * 3.0**-m for m in range(1, 7)]
        a = frostman_constant(mu, radii)
        b = frostman_constant(doubled, radii)
        assert b == pytest.approx(2.0 * a, rel=1e-12)

    def test_needs_positive_radii(self):
        mu = cantor_measure(1 / 3, 3)
        with pytest.raises(ValueError):
            frostman_constant(mu, [])
        with pytest.raises(ValueError):
            frostman_constant(mu, [0.0])

    def test_two_dimensional_measure_rejected(self):
        mu = AtomicMeasure(2, np.array([[1.0, 2.0]]), np.array([1.0]), 0.0)
        with pytest.raises(ValueError, match="d = 1"):
            frostman_constant(mu, [0.1])

    def test_default_maximal_run_evaluates_twice(self, monkeypatch):
        # once over the default radii, kept on the Cantor measure for all ten
        # transfer ratios, and once over the 3-adic radii of the golden
        from talbot_lab.experiments import maximal
        from talbot_lab.experiments.config import load_config

        radii_seen = []

        def counted(mu, radii):
            radii_seen.append(tuple(radii))
            return frostman_constant(mu, radii)

        monkeypatch.setattr(measures, "frostman_constant", counted)
        monkeypatch.setattr(maximal, "frostman_constant", counted)
        maximal.run(load_config("maximal", None), 1)
        assert len(radii_seen) == 2
        assert radii_seen[0] == DEFAULT_FROSTMAN_RADII


class TestConvolution:
    def test_point_mass_attains_kernel_peak(self):
        mu = AtomicMeasure(1, np.array([[0.0]]), np.array([1.0]), 0.0)
        n = 32
        assert convolve_dirichlet_sup(mu, [n], 64 * n)[0] == pytest.approx(2 * n + 1, rel=1e-12)

    def test_uniform_matches_kernel_integral(self):
        # for the uniform measure the convolution is constant in x and
        # equals the normalized kernel integral; quadrature is the oracle
        n = 64
        mu = uniform_measure(1 << 12)
        [value] = convolve_dirichlet_sup(mu, [n], 1 << 12)
        oracle = dirichlet_l1(n)[0] / TAU
        assert value == pytest.approx(oracle, rel=0.02)

    def test_uniform_log_growth_band(self):
        mu = uniform_measure(1 << 16)
        vals = []
        for e in range(8, 15):
            n = 2**e
            m = 1 << max(int(math.ceil(math.log2(63 * n))), 16)
            vals.append(convolve_dirichlet_sup(mu, [n], m)[0] / math.log(n))
        geo = float(np.exp(np.mean(np.log(vals))))
        assert max(vals) / geo <= 1.2 and geo / min(vals) <= 1.2

    def test_envelope_dominates_every_truncation(self):
        xs = np.linspace(1e-4, math.pi, 400)
        n = 40
        env = dirichlet_abs_max_envelope(n, xs, np.abs(dirichlet_kernel_1d(n, xs)))
        for m in (1, 5, 17, 40):
            assert np.all(env >= np.abs(dirichlet_kernel_1d(m, xs)) - 1e-9)

    def test_under_resolved_grid_rejected(self):
        mu = cantor_measure(1 / 3, 4)
        with pytest.raises(ValueError, match="resolve"):
            convolve_dirichlet_sup(mu, [512], 128)

    def test_atom_just_below_two_pi_sits_on_grid_point_zero(self):
        mu = AtomicMeasure(1, np.array([[-1e-13]]), np.array([1.0]), 0.0)
        n = 8
        assert convolve_dirichlet_sup(mu, [n], 1024)[0] == pytest.approx(2 * n + 1, rel=1e-12)

    def test_off_grid_atom_rejected(self):
        # the level-4 Cantor atoms sit at odd multiples of pi / 81, off a 2^12 grid
        mu = cantor_measure(1 / 3, 4)
        with pytest.raises(ValueError, match="off the 4096-point grid"):
            convolve_dirichlet_sup(mu, [32], 1 << 12)

    def test_growth_exponent_short_sweep(self):
        mu = cantor_measure(1 / 3, 10)
        grid = 2 * 3**10
        ns = [2**e for e in range(6, 11)]
        pts = [(float(n), v) for n, v in zip(ns, convolve_dirichlet_sup(mu, ns, grid))]
        fit = exponent_fit(pts)
        assert fit.slope == pytest.approx(1 - math.log(2) / math.log(3), abs=0.15)


class TestKernelIntegral:
    def test_bandwidth_one_analytic(self):
        assert dirichlet_l1(1)[0] == pytest.approx(2 * math.pi / 3 + 4 * math.sqrt(3), rel=1e-6)

    def test_maximal_dominates(self):
        for n in (1, 4, 64, 512):
            plain, maxi = dirichlet_l1(n)
            assert maxi >= plain

    def test_quadrature_is_converged(self):
        for n in (3, 37, 256):
            coarse = dirichlet_l1(n)[0]
            fine = _dirichlet_l1_reference(n, False, max(320 * n, 32000))
            assert coarse == pytest.approx(fine, rel=2e-4 * 1.5)

    def test_log_band(self):
        vals = [dirichlet_l1(2**e)[0] / (e * math.log(2)) for e in range(4, 13)]
        assert max(vals) / min(vals) <= 2.0


class TestMaximalLpNorm:
    def test_single_mode_gives_total_mass_power(self):
        mu = cantor_measure(1 / 3, 6)
        f = FourierData(1, [3], [1.0])
        plan = TimeSamplingPlan(q_max=16, grid=8)
        for p in (1.0, 2.0, 6.0):
            expected = mu.masses.sum() ** (1.0 / p)
            assert maximal_lp_norm(f, mu, p, plan) == pytest.approx(expected, rel=1e-12)

    def test_monotone_under_plan_refinement(self):
        mu = uniform_measure(128)
        f = dirichlet_datum(16)
        coarse = TimeSamplingPlan(q_max=16, grid=8)
        fine = TimeSamplingPlan(q_max=32, grid=16)
        assert maximal_lp_norm(f, mu, 6.0, coarse) <= maximal_lp_norm(f, mu, 6.0, fine)

    def test_p_mean_below_atom_maximum(self):
        # probability weights: the p-mean never exceeds the atom maximum
        mu = cantor_measure(1 / 3, 6)
        f = dirichlet_datum(8)
        plan = TimeSamplingPlan(q_max=16, grid=8)
        sup = float(_time_maxima(f, mu, plan.times()).max())
        for p in (1.0, 2.0, 6.0):
            assert maximal_lp_norm(f, mu, p, plan) <= sup + 1e-12

    def test_rejects_bad_p(self):
        mu = uniform_measure(16)
        with pytest.raises(ValueError):
            maximal_lp_norm(dirichlet_datum(4), mu, 0.5, TimeSamplingPlan(8, 4))


class TestTransference:
    def test_zero_datum_gives_zero(self):
        mu = cantor_measure(1 / 3, 6)
        f = FourierData(1, [], [])
        plan = TimeSamplingPlan(q_max=16, grid=8)
        assert transference_ratio(f, mu, 6.0, 0.9, plan) == 0.0

    def test_scaling_invariance(self):
        mu = cantor_measure(1 / 3, 8)
        f = dirichlet_datum(16)
        doubled = FourierData(1, f.ks, 2.0 * f.coeffs)
        plan = TimeSamplingPlan(q_max=16, grid=8)
        s = (1 - mu.alpha) / 6 + 1 / 3 + 0.05
        a = transference_ratio(f, mu, 6.0, s, plan)
        b = transference_ratio(doubled, mu, 6.0, s, plan)
        assert a == pytest.approx(b, rel=1e-12)

    def test_chain_recomputes_to_same_ratio(self):
        # plumbing audit: numerator and denominator recomputed independently
        from talbot_lab.measures import DEFAULT_FROSTMAN_RADII
        from talbot_lab.schrodinger import sobolev_norm

        mu = cantor_measure(1 / 3, 8)
        f = dirichlet_datum(16)
        plan = TimeSamplingPlan(q_max=16, grid=8)
        s = (1 - mu.alpha) / 6 + 1 / 3 + 0.05
        ratio = transference_ratio(f, mu, 6.0, s, plan)
        num = maximal_lp_norm(f, mu, 6.0, plan)
        den = frostman_constant(mu, DEFAULT_FROSTMAN_RADII) ** (1 / 6.0) * sobolev_norm(f, s)
        assert ratio == pytest.approx(num / den, rel=1e-12)

    def test_regularity_floor_enforced(self):
        mu = cantor_measure(1 / 3, 6)
        with pytest.raises(ValueError, match="transfer"):
            transference_ratio(dirichlet_datum(8), mu, 6.0, 0.1, TimeSamplingPlan(8, 4))

    def test_bounded_over_short_sweep(self):
        mu = cantor_measure(1 / 3, 10)
        plan = TimeSamplingPlan(q_max=32, grid=32)
        s = (1 - mu.alpha) / 6 + 1 / 3 + 0.05
        vals = [
            transference_ratio(dirichlet_datum(2**e), mu, 6.0, s, plan)
            for e in range(5, 9)
        ]
        assert max(vals) <= 2.0 * float(np.median(vals))


class TestCarleson:
    def test_single_truncation_reduces_to_weighted_norm(self):
        mu = cantor_measure(1 / 3, 8)
        n = 16
        f = dirichlet_datum(n)
        t = RationalTime(8)
        ratio = carleson_l2_ratio(f, mu, 0.4, [n], t)
        from talbot_lab.schrodinger import SamplePoint, partial_sum_direct

        xs = [SamplePoint((0,), 1, (y / (2 * math.pi),)) for y in mu.positions[:, 0].tolist()]
        values = partial_sum_direct(f, n, t, xs)
        weighted = math.sqrt(float((mu.masses * np.abs(values) ** 2).sum()))
        denom = (
            math.sqrt(frostman_constant(mu, DEFAULT_FROSTMAN_RADII))
            * n ** ((1 - mu.alpha) / 2 + 0.05)
            * f.l2()
        )
        assert ratio == pytest.approx(weighted / denom, rel=1e-9)

    def test_near_point_mass_edge_shape(self):
        # alpha = 0 itself is rejected by the well-posedness gate; just
        # above it the ratio obeys the coefficient-counting bound shape
        mu = AtomicMeasure(1, np.array([[0.5]]), np.array([1.0]), 0.01)
        n = 32
        f = dirichlet_datum(n)
        ratio = carleson_l2_ratio(f, mu, 0.5, [2, 8, n], RationalTime(4))
        assert math.isfinite(ratio)
        assert ratio * n ** (0.5 * (1 - 0.01) + 0.05) / math.sqrt(2 * n + 1) <= 1.5

    def test_illposed_regime_rejected(self):
        cantor = cantor_measure(1 / 3, 6)
        mu = AtomicMeasure(1, cantor.positions, cantor.masses, 0.4)
        with pytest.raises(ValueError, match="ill-posed"):
            carleson_l2_ratio(dirichlet_datum(8), mu, 0.3, [4, 8], RationalTime(4))

    def test_bounded_over_short_sweep(self):
        mu = cantor_measure(1 / 3, 10)
        vals = []
        for e in range(5, 9):
            n = 2**e
            vals.append(
                carleson_l2_ratio(
                    dirichlet_datum(n), mu, 0.3, [2**i for i in range(1, e + 1)], RationalTime(8)
                )
            )
        assert max(vals) <= 2.0 * float(np.median(vals))


class TestExponentFit:
    def test_exact_square_law(self):
        fit = exponent_fit([(n, float(n) ** 2) for n in (4, 8, 16, 32, 64)])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.residual <= 1e-12

    def test_polylog_synthetic(self):
        pts = [(n, 5.0 * n**0.37 * math.log(n)) for n in (8, 16, 32, 64, 128)]
        fit = exponent_fit(pts, polylog=True)
        assert fit.slope == pytest.approx(0.37, abs=1e-6)
        assert fit.residual <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            exponent_fit([(2, 4.0), (4, 16.0)])
        with pytest.raises(ValueError):
            exponent_fit([(2, 4.0), (4, -1.0), (8, 64.0)])


# Test-local copies of the per-call formulas that the shared kernels replaced:
# every value must come out with the same bits.


def _grid_weights(mu, m):
    idx = np.rint(mu.positions[:, 0] / TAU * m).astype(np.int64) % m
    weights = np.zeros(m)
    np.add.at(weights, idx, mu.masses)
    return weights


def _convolve_reference(mu, n, m):
    # the real-input formula; a complex product rounds by operand order, and
    # the code multiplies the kernel spectrum by the weight spectrum
    kern = np.abs(dirichlet_kernel_1d(n, TAU * np.arange(m) / m))
    spectrum = np.fft.rfft(_grid_weights(mu, m))
    return float(np.fft.irfft(np.fft.rfft(kern) * spectrum, n=m).max())


def _convolve_complex(mu, ns, m):
    # the complex-transform formula the real-input one replaced, for a
    # relative check: the two round differently in the last bits
    x = TAU * np.arange(m) / m
    spectrum = np.fft.fft(_grid_weights(mu, m))
    return [
        float(np.fft.ifft(spectrum * np.fft.fft(np.abs(dirichlet_kernel_1d(n, x)))).real.max())
        for n in ns
    ]


def _assert_convolution_keeps_bits(mu, ns, m):
    got = convolve_dirichlet_sup(mu, ns, m)
    assert got == [_convolve_reference(mu, n, m) for n in ns]
    np.testing.assert_allclose(got, _convolve_complex(mu, ns, m), rtol=1e-14, atol=0)


def _dirichlet_l1_reference(n, maximal, m=None):
    """The whole-grid quadrature of dirichlet_l1, on its grid of m intervals
    by default."""
    m = max(40 * n, 2000) if m is None else m
    x = TAU * np.arange(m + 1) / m
    f = np.abs(dirichlet_kernel_1d(n, x))
    if maximal:
        s = np.abs(np.sin(x / 2.0))
        cap = float(2 * n + 1)
        with np.errstate(divide="ignore"):
            env = np.where(s > 1.0 / cap, 1.0 / np.maximum(s, 1e-300), cap)
        f = np.maximum(np.minimum(env, cap), f)
    w = np.ones(m + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((w * f).sum() * (TAU / m) / 3.0)


def _maximal_values_reference(f, mu, times):
    ks, coeffs = f.ks, f.coeffs
    ksq = (ks * ks).sum(axis=1).astype(float)
    best = np.zeros(mu.n_atoms)
    chunk = max(1, (1 << 23) // max(ks.shape[0], 1))
    for start in range(0, mu.n_atoms, chunk):
        ex = np.exp(1j * (mu.positions[start : start + chunk] @ ks.T.astype(float)))
        for t in times:
            vals = np.abs(ex @ (coeffs * np.exp(-1j * ksq * t)))
            np.maximum(best[start : start + chunk], vals, out=best[start : start + chunk])
    return best


def _frostman_reference(mu, alpha, radii):
    # the Frostman estimate as it was when alpha was an argument of its own
    centers = mu.positions[:, 0]
    order = np.argsort(centers, kind="stable")
    pos = centers[order]
    cum = np.concatenate([[0.0], np.cumsum(mu.masses[order])])
    total = cum[-1]
    quotients = []
    for r in radii:
        if 2 * r >= TAU:
            masses = np.full(centers.size, total)
        else:
            lo = (centers - r - 1e-12) % TAU
            hi = (centers + r + 1e-12) % TAU
            lo_i = np.searchsorted(pos, lo, side="left")
            hi_i = np.searchsorted(pos, hi, side="right")
            masses = np.where(lo > hi, (total - cum[lo_i]) + cum[hi_i], cum[hi_i] - cum[lo_i])
        quotients.append(float((masses / r**alpha).max()))
    return max(quotients)


def _carleson_reference(f, mu, s, alpha, n_trunc_set, t):
    d = f.d
    n = f.bandwidth
    truncs = sorted({int(m) for m in n_trunc_set if int(m) <= n})
    best = np.zeros(mu.n_atoms)
    for m in truncs:
        keep = (np.abs(f.ks) <= m).all(axis=1)
        ks, coeffs = f.ks[keep], f.coeffs[keep]
        if ks.shape[0] == 0:
            continue
        ksq = (ks * ks).sum(axis=1).astype(float)
        vals = np.abs(np.exp(1j * (mu.positions @ ks.T.astype(float) - ksq[None, :] * t.t)) @ coeffs)
        np.maximum(best, vals, out=best)
    num = float(np.sqrt((mu.masses * best**2).sum()))
    den = (
        math.sqrt(_frostman_reference(mu, alpha, DEFAULT_FROSTMAN_RADII))
        * n ** ((d - alpha) / 2.0 + 0.05)
        * f.l2()
    )
    return num / den


def _time_maxima(f, mu, times):
    """The shared evaluator as maximal_lp_norm calls it: time-phased
    coefficients, no shift, no mask."""
    from talbot_lab.measures import _atom_maxima

    ksq = (f.ks * f.ks).sum(axis=1).astype(float)
    return _atom_maxima(mu, f.ks, 0.0, [(None, f.coeffs * np.exp(-1j * ksq * t)) for t in times])


def _random_datum(rng, bandwidth, nnz):
    ks = rng.choice(2 * bandwidth + 1, size=nnz, replace=False) - bandwidth
    coeffs = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
    return FourierData(1, ks, coeffs)


class TestSharedKernelsKeepEveryBit:
    @pytest.mark.parametrize("nnz", [1, 33, 1025])
    def test_blocked_maximal_values(self, nnz):
        from talbot_lab.measures import _block_rows

        rng = np.random.default_rng(nnz)
        rows = _block_rows(nnz)
        n_atoms = 2 * rows + 7  # two full blocks and a ragged one
        mu = AtomicMeasure(1, rng.uniform(0, TAU, n_atoms), np.full(n_atoms, 1.0 / n_atoms), 0.5)
        f = _random_datum(rng, 600, nnz)
        times = TimeSamplingPlan(q_max=16, grid=8).times()
        got = _time_maxima(f, mu, times)
        assert np.array_equal(got, _maximal_values_reference(f, mu, times))

    def test_carleson_shuffled_frequencies(self):
        rng = np.random.default_rng(5)
        mu = cantor_measure(1 / 3, 10)
        f = dirichlet_datum(64)
        order = rng.permutation(f.nnz)
        f = FourierData(1, f.ks[order], f.coeffs[order] * (1 + 0.5j * rng.standard_normal(f.nnz)))
        truncs = [2**i for i in range(1, 7)]
        got = carleson_l2_ratio(f, mu, 0.3, truncs, RationalTime(8))
        assert got == _carleson_reference(f, mu, 0.3, mu.alpha, truncs, RationalTime(8))

    def test_carleson_smallest_level_keeps_nothing(self):
        ks = np.array([k for k in range(-40, 41) if abs(k) >= 3]).reshape(-1, 1)
        f = FourierData(1, ks, np.ones(ks.shape[0], dtype=complex))
        mu = cantor_measure(1 / 3, 9)
        truncs = [1, 2, 8, 40]
        got = carleson_l2_ratio(f, mu, 0.3, truncs, RationalTime(4))
        assert got == _carleson_reference(f, mu, 0.3, mu.alpha, truncs, RationalTime(4))

    def test_relabelled_measure_moves_ratios_as_alpha_argument(self):
        # the old alpha argument entered the gate, the Frostman quotient and
        # the Carleson scaling; the measure's own label now does, bit for bit
        from talbot_lab.schrodinger import sobolev_norm

        mu = cantor_measure(1 / 3, 8)
        f = dirichlet_datum(32)
        plan = TimeSamplingPlan(q_max=16, grid=8)
        truncs = [2, 8, 32]
        num = maximal_lp_norm(f, mu, 6.0, plan)
        for alpha in (0.5, mu.alpha, 0.9):
            nu = AtomicMeasure(1, mu.positions, mu.masses, alpha)
            c_alpha = _frostman_reference(mu, alpha, DEFAULT_FROSTMAN_RADII)
            assert nu.c_alpha == c_alpha
            got = carleson_l2_ratio(f, nu, 0.3, truncs, RationalTime(8))
            assert got == _carleson_reference(f, mu, 0.3, alpha, truncs, RationalTime(8))
            s = (1 - alpha) / 6 + 1 / 3 + 0.05
            got = transference_ratio(f, nu, 6.0, s, plan)
            assert got == num / (c_alpha ** (1.0 / 6.0) * sobolev_norm(f, s))

    def test_convolution_list_matches_per_n(self):
        mu = cantor_measure(1 / 3, 8)
        grid = 2 * 3**8
        _assert_convolution_keeps_bits(mu, [64, 32, 64, 128], grid)

    @pytest.mark.parametrize("n", [1, 4, 64, 512])
    def test_dirichlet_l1_pair(self, n):
        assert dirichlet_l1(n) == (
            _dirichlet_l1_reference(n, False), _dirichlet_l1_reference(n, True)
        )


_B = _BLOCK_ENTRIES


def _on_grid_measure(m, seed):
    """Random atoms on the m-point grid, point 0 and one atom just below 2 pi included."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(m, size=200, replace=False)
    pos = np.concatenate([TAU * idx / m, [0.0, np.nextafter(TAU, 0.0)]])
    return AtomicMeasure(1, pos, rng.uniform(0.5, 1.5, pos.size), 0.5)


class TestStreamedGridsKeepEveryBit:
    # every grid holds x = 0, and the Simpson grid also 2 pi: both take the
    # kernel's near-singular branch

    @pytest.mark.parametrize("m", [_B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B, 2 * _B + 1])
    def test_convolution_across_block_edges(self, m):
        mu = _on_grid_measure(m, m)
        _assert_convolution_keeps_bits(mu, [1, 9, 1000], m)

    def test_convolution_default_grid_and_bandwidths(self):
        mu = cantor_measure(1 / 3, 12)
        grid = 2 * 3**12
        _assert_convolution_keeps_bits(mu, [2**e for e in range(6, 14)], grid)

    @pytest.mark.parametrize(
        "n, block",
        [
            (50, 2002),  # m + 1 = 2001 grid points: one below a block edge
            (50, 2001),  # at it
            (50, 2000),  # one above it
            (50, 1000),  # across two edges
            (2000, _B),  # m = 80000 crosses the shipped block edge
        ],
    )
    def test_dirichlet_l1_across_block_edges(self, monkeypatch, n, block):
        # the streamed grid and the envelope loop read the block size per call
        monkeypatch.setattr(measures, "_BLOCK_ENTRIES", block)
        assert dirichlet_l1(n) == (
            _dirichlet_l1_reference(n, False), _dirichlet_l1_reference(n, True)
        )


def _traced_peak(fn, *args):
    """Peak bytes traced while fn runs; numpy reports its data buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedGridMemory:
    # pocketfft's own scratch is not traced; the whole-grid temporaries were

    def test_convolution_holds_one_real_grid_and_two_half_spectra(self):
        mu = cantor_measure(1 / 3, 12)
        m = 2 * 3**12
        assert _traced_peak(convolve_dirichlet_sup, mu, [64, 512, 4096], m) < 3.5 * 8 * m

    def test_dirichlet_l1_holds_one_real_grid(self):
        m = 40 * 2**16
        assert _traced_peak(dirichlet_l1, 2**16) < 1.5 * 8 * (m + 1)


class TestConvolutionValidatesFirst:
    def test_last_bandwidth_under_resolving_raises_before_any_fft(self, monkeypatch):
        ffts = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            real = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, _f=real, **k: ffts.append(1) or _f(*a, **k))
        mu = cantor_measure(1 / 3, 6)
        grid = 2 * 3**6  # resolves N = 4 and 8, not 512
        with pytest.raises(ValueError, match="resolve"):
            convolve_dirichlet_sup(mu, [4, 8, 512], grid)
        assert ffts == []
        assert len(convolve_dirichlet_sup(mu, [4, 8], grid)) == 2
        assert ffts  # the counter sees the transforms the code does use

    def test_empty_bandwidth_list_rejected(self):
        mu = cantor_measure(1 / 3, 4)
        with pytest.raises(ValueError, match="at least one bandwidth"):
            convolve_dirichlet_sup(mu, [], 2 * 3**4)
        with pytest.raises(ValueError, match="bandwidth must be >= 1"):
            convolve_dirichlet_sup(mu, [2, 0], 2 * 3**4)
