from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from talbot_lab.counterexample import CounterexampleParams, anchor_range
from talbot_lab.experiments.config import covering_cases, load_config
from talbot_lab.fractal import (
    ROOT_CUBE,
    CantorPlan,
    Cube,
    CubeFamily,
    audit_nesting,
    audit_separated_family,
    audit_separated_maximal,
    build_nested_levels,
    cantor_lower_bound,
    level_cube_count,
    level_volume_lower_bound,
    idealized_plan,
    separated_cubes,
)
from talbot_lab.measures import exponent_fit

E0 = Cube((1,), 8, Fraction(0), Fraction(1, 8))


def desk_params(**overrides):
    base = dict(d=1, alpha=1.0, lam=16, delta=0.05, kappa=0.25)
    base.update(overrides)
    return CounterexampleParams(**base)


class TestLevelCubeFamily:
    def test_hand_enumerated_level_two(self):
        params = desk_params()
        assert level_cube_count(params, 2) == 8
        assert {q: len(anchor_range(q)) for q in params.q_window(2)} == {4: 1, 8: 2, 12: 2, 16: 3}

    def test_count_matches_enumeration(self):
        # the closed form against every (q, p) anchor pair listed one by one
        params = desk_params()
        for j in (2, 3, 4):
            pairs = [(q, p) for q in params.q_window(j) for p in anchor_range(q)]
            assert level_cube_count(params, j) == len(pairs)

    # the count is one-dimensional; d = 2 is rejected, see
    # test_two_dimensional_input_rejected[level_cube_count]
    @pytest.mark.parametrize("d", [1])
    def test_count_matches_the_window_sum(self, d):
        # the closed form against the per-denominator sum, over every shipped
        # covering case and the desk windows
        cases = covering_cases(load_config("dimension", None)["cov_cases"])
        for alpha, lam, kappa in cases + [(1, 16, Fraction(1, 4)), (1, 16, Fraction(1, 64))]:
            params = CounterexampleParams(d=d, alpha=float(alpha), lam=lam, delta=0.01,
                                          kappa=float(kappa))
            for j in range(0, 9):
                old = sum(len(anchor_range(q)) for q in params.q_window(j))
                assert level_cube_count(params, j) == old

    def test_cap_rejects_large_families(self):
        # level 7 holds 3,935,745 cubes, above the 2^20 cap; counting them is cheap
        with pytest.raises(ValueError, match="cap"):
            level_volume_lower_bound(desk_params(), 7)


def covering_fit(params, levels):
    """ln(count) against j ln(lam) over the levels, as the dimension run fits it."""
    return exponent_fit([(float(params.lam) ** j, level_cube_count(params, j)) for j in levels])


class TestCoveringExponent:
    def test_exact_on_synthetic_counts(self):
        fit = exponent_fit([(2.0**j, 3 * 4**j) for j in range(1, 7)])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.residual <= 1e-12

    def test_full_dimension_family(self):
        params = CounterexampleParams(d=1, alpha=1.0, lam=64, delta=0.01, kappa=1 / 8)
        assert covering_fit(params, range(2, 7)).slope == pytest.approx(1.0, abs=0.05)

    def test_two_thirds_family(self):
        params = CounterexampleParams(d=1, alpha=2 / 3, lam=343, delta=0.01, kappa=1 / 7)
        assert covering_fit(params, range(2, 7)).slope == pytest.approx(2 / 3, abs=0.05)


@pytest.mark.parametrize(
    "call",
    [
        # no 2-D cube exists, so no packing or audit ever receives one: the
        # rows below reject their input as it is built
        lambda: Cube((1, 1), 8, Fraction(0), Fraction(1, 8)),
        lambda: separated_cubes(Cube((1, 1), 8, Fraction(0), Fraction(1, 8)), 64, 2),
        lambda: audit_separated_family(
            Cube((1, 1), 8, Fraction(0), Fraction(1, 8)), separated_cubes(E0, 64, 2), 2
        ),
        lambda: audit_separated_maximal(
            Cube((1, 1), 8, Fraction(0), Fraction(1, 8)), 64, 2, 4, separated_cubes(E0, 64, 2)
        ),
        lambda: level_volume_lower_bound(
            CounterexampleParams(d=2, alpha=2.0, lam=8, delta=0.05, kappa=1 / 4), 2
        ),
        lambda: build_nested_levels(2, 2, 64, 1),
        lambda: level_cube_count(
            CounterexampleParams(d=2, alpha=2.0, lam=8, delta=0.05, kappa=1 / 4), 2
        ),
    ],
    ids=["cube", "separated_cubes", "audit_separated_family", "audit_separated_maximal",
         "level_volume_lower_bound", "build_nested_levels", "level_cube_count"],
)
def test_two_dimensional_input_rejected(call):
    with pytest.raises(ValueError, match="one-dimensional; got d = 2"):
        call()


def _float_numerators(family):
    return replace(family, p=[float(v) for v in family.p])


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: Cube((1,), 0, Fraction(0), Fraction(1)), "denominator must be positive"),
        (lambda: Cube((1,), 8, Fraction(1), Fraction(1)), "lo < hi"),
        (lambda: CubeFamily([1, 2], [3], 0, 1, 2), "2 numerators for 1 denominators"),
        (lambda: CubeFamily([1], [0], 0, 1, 2), "denominator must be positive"),
        (lambda: CubeFamily([1], [3], 1, 0, 2), "lo < hi"),
        # every radius exponent is an integer >= 2
        (lambda: CubeFamily([1], [3], 0, 1, 1), "integer tau >= 2"),
        (lambda: CubeFamily([1], [4], -1, 1, 2.5), "integer tau >= 2"),
        (lambda: CantorPlan(1, 2.0, (4,), (4, 4), (0.1, 0.01)), "one length"),
        (lambda: CantorPlan(1, 2.0, (4, 16), (4, 4), (0.1, 0.1)), "strictly decreasing"),
        (lambda: CantorPlan(1, 2.0, (4, 16), (4, 4), (0.1, 0.0)), "positive"),
        # anchors must be integers, wherever a family or cube is made
        (lambda: Cube((1.5,), 8, Fraction(0), Fraction(1, 8)), "must be integers"),
        (lambda: CubeFamily([2], [8.0], -1, 1, 2), "must be integers"),
        (lambda: audit_nesting(
            CubeFamily([1.0], [8], Fraction(0), Fraction(1, 8), 2),
            CubeFamily([3.25], [16], Fraction(1, 200), Fraction(1, 100), 2),
        ), "must be integers"),
        (lambda: audit_separated_family(
            ROOT_CUBE, _float_numerators(separated_cubes(ROOT_CUBE, 64, 2)), 2
        ), "must be integers"),
    ],
    ids=["cube_denominator", "cube_empty", "family_lengths", "family_denominator",
         "family_empty", "family_exponent", "family_fractional_exponent", "plan_levels",
         "plan_separations",
         "plan_separation_zero", "cube_float_numerator", "family_float_denominator",
         "nesting_float_anchors", "separated_audit_float_anchors"],
)
def test_malformed_construction_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_numpy_integer_anchors_stored_as_ints():
    cube = Cube((np.int64(1),), np.int32(8), Fraction(0), Fraction(1, 8))
    family = CubeFamily(np.array([1, 3]), np.array([4, 8], dtype=np.uint16), 0, 1, 2)
    assert cube == E0 and type(cube.p) is tuple
    assert [type(v) for v in (*cube.p, cube.q, *family.p, *family.q)] == [int] * 6


class TestSeparatedCubes:
    def test_reference_window(self):
        fam = separated_cubes(E0, 256, 2, beta=4)
        assert len(fam) > 0
        audit_separated_family(E0, fam, 2)

    def test_exact_gap_audit(self):
        fam = separated_cubes(E0, 128, 2, beta=4)
        gap = Fraction(1, 128**2)
        ordered = sorted(fam, key=lambda c: Fraction(c.p[0], c.q))
        for a, b in zip(ordered, ordered[1:]):
            assert b.lo_corner(0) - a.hi_corner(0) >= gap

    def test_greedy_is_maximal_at_small_n(self):
        fam = separated_cubes(E0, 64, 2, beta=4)
        audit_separated_maximal(E0, 64, 2, 4, fam)

    def test_count_scaling(self):
        from talbot_lab.measures import exponent_fit

        pts = []
        for e in range(6, 11):
            fam = separated_cubes(E0, 2**e, 2, beta=4)
            pts.append((float(2**e), float(len(fam))))
        fit = exponent_fit(pts)
        assert fit.slope == pytest.approx(2.0, abs=0.2)

    def test_early_stop_prefix(self):
        full = separated_cubes(E0, 256, 2, beta=4)
        capped = separated_cubes(E0, 256, 2, beta=4, max_cubes=10)
        assert [(c.p, c.q) for c in capped] == [(c.p, c.q) for c in list(full)[:10]]

    @pytest.mark.parametrize("n", [0, -8])
    def test_window_without_denominators_rejected(self, n):
        with pytest.raises(ValueError, match="no q >= 1"):
            separated_cubes(E0, n, 2, beta=4)

    def test_degenerate_window_ratio_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            separated_cubes(E0, 256, 2, beta=1)

    def test_margin_exceeding_cube_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            separated_cubes(E0, 8, 2, beta=4)


class TestNestedConstruction:
    def test_single_level_reduces_to_packing(self):
        fams, plan = build_nested_levels(1, 2, 256, 1, retain=10**9, max_children=10**9)
        direct = separated_cubes(E0, 256, 2, beta=4)
        assert len(fams[0]) == len(direct)
        assert plan.m == (len(direct),)

    def test_three_levels_with_defaults(self):
        fams, plan = build_nested_levels(1, 2, 256, 3)
        assert plan.levels == 3
        assert all(m >= 2 for m in plan.m)
        assert plan.eps[0] > plan.eps[1] > plan.eps[2] > 0
        audit_nesting(fams[0], fams[1])
        audit_nesting(fams[1], fams[2])

    def test_four_levels_with_defaults(self):
        # level 4 packs denominators near 2^44 inside parents about 2^-70 wide
        fams, plan = build_nested_levels(1, 2, 256, 4)
        assert plan.n[-1] == 256 * 4096**3
        assert min(plan.m) >= 2
        for parents, children in zip(fams, fams[1:]):
            audit_nesting(parents, children)

    def test_offset_twins_carry_window_constants(self):
        fams, _ = build_nested_levels(1, 2, 256, 1)
        for cube in fams[0]:
            assert cube.lo == Fraction(1, 200) * Fraction(1, cube.q**2)
            assert cube.hi == Fraction(1, 100) * Fraction(1, cube.q**2)

    def test_starved_level_names_condition(self):
        with pytest.raises(ValueError, match="m_k >= 2"):
            build_nested_levels(1, 2, 24, 1)

    def test_default_separations_pinned(self):
        _, plan = build_nested_levels(1, 2, 256, 3)
        assert plan.eps == (0.0008157953404673416, 2.760860563123455e-10, 3.4523128658663148e-18)


def one_child(p, q, lo, hi):
    """A one-member level-2 family p/q + [lo/q^2, hi/q^2]."""
    return CubeFamily([p], [q], lo, hi, 2)


class TestAuditNesting:
    # the rule (0, 2, t = 2): [1/4, 3/8] and [3/8, 13/32]
    PARENTS = CubeFamily([1, 3], [4, 8], Fraction(0), Fraction(2), 2)

    def test_parent_corners(self):
        assert [(c.lo_corner(0), c.hi_corner(0)) for c in self.PARENTS] == [
            (Fraction(1, 4), Fraction(3, 8)), (Fraction(3, 8), Fraction(13, 32))
        ]

    def test_child_in_one_parent_passes(self):
        # the rule (0, 8, t = 2) at q = 16: [5/16, 11/32] inside [1/4, 3/8],
        # and, cubes being closed, the unreduced 6/16 gives [3/8, 13/32], equal
        # to its parent
        children = CubeFamily([5, 6], [16, 16], Fraction(0), Fraction(8), 2)
        audit_nesting(self.PARENTS, children)

    @pytest.mark.parametrize(
        "child",
        [
            one_child(1, 8, Fraction(0), Fraction(1)),  # [1/8, 9/64], below both parents
            one_child(3, 8, Fraction(1), Fraction(2) + Fraction(1, 1 << 40)),
            one_child(3, 8, -Fraction(1, 1 << 40), Fraction(1)),
        ],
        ids=["outside", "past_hi_corner", "before_lo_corner"],
    )
    def test_child_outside_every_parent_raises(self, child):
        with pytest.raises(AssertionError, match="contained in 0 parents"):
            audit_nesting(self.PARENTS, child)

    def test_child_in_two_overlapping_parents_raises(self):
        # the child [3/8, 25/64] lies in [3/8, 13/32] and in the added [1/3, 5/9]
        parents = CubeFamily([1, 3, 1], [4, 8, 3], Fraction(0), Fraction(2), 2)
        with pytest.raises(AssertionError, match="contained in 2 parents"):
            audit_nesting(parents, one_child(3, 8, Fraction(0), Fraction(1)))


class TestCantorLowerBound:
    def test_idealized_full_dimension_plan(self):
        # alpha = d makes every finite-level term exactly (d+1)/tau
        plan = idealized_plan(1, 16, 2.0, 4)
        assert cantor_lower_bound(plan) == pytest.approx(1.0, abs=1e-12)
        assert abs(cantor_lower_bound(plan) - 1.0) <= 0.15

    def test_idealized_two_dimensional(self):
        plan = idealized_plan(2, 8, 1.5, 4)
        assert cantor_lower_bound(plan) == pytest.approx(2.0, abs=1e-12)

    def test_single_branch_rejected(self):
        with pytest.raises(ValueError, match="m_k >= 2"):
            CantorPlan(1, 2.0, (4, 16), (1, 4), (0.1, 0.01))

    def test_improving_separation_cannot_decrease_value(self):
        plan = idealized_plan(1, 4, 3.0, 4)
        better = CantorPlan(
            plan.d, plan.tau, plan.n, plan.m,
            tuple(e * 1.5 for e in plan.eps),
        )
        assert cantor_lower_bound(better) >= cantor_lower_bound(plan)

    def test_constructed_plan_value(self):
        _, plan = build_nested_levels(1, 2, 256, 2)
        value = cantor_lower_bound(plan)
        assert value > 0.0

    def test_nonpositive_log_rejected(self):
        plan = CantorPlan(1, 2.0, (4, 16), (4, 4), (0.5, 0.3))
        with pytest.raises(ValueError, match="log"):
            cantor_lower_bound(plan)


def _oracle_volume_sweep(params, j):
    """Count the pairwise-disjoint intervals p/q + [c1 lam^-j, c2 lam^-j] of
    level j by a sweep over the anchors in exact order, times the side."""
    side = (params.c2 - params.c1) * Fraction(1, params.lam**j)
    anchors = sorted(
        ((p, q) for q in params.q_window(j) for p in anchor_range(q)),
        key=lambda a: Fraction(*a),
    )
    count = 1
    p_a, q_a = anchors[0]
    for p_b, q_b in anchors[1:]:
        # the interval at p_b/q_b starts past the frontier p_a/q_a + side
        if Fraction(p_b, q_b) - Fraction(p_a, q_a) > side:
            count += 1
            p_a, q_a = p_b, q_b
    return count * float(side)


class TestVolumeLowerBound:
    def test_strictly_positive_and_stable(self):
        params = desk_params(kappa=Fraction(1, 64))
        values = {j: level_volume_lower_bound(params, j) for j in (3, 4, 5)}
        assert all(v > 0 for v in values.values())
        assert values[3] <= 1.0  # bounded by the unit torus volume
        for a, b in zip((3, 4), (4, 5)):
            ratio = values[b] / values[a]
            assert 0.25 <= ratio <= 4.0

    def test_values_pinned(self):
        params = desk_params(kappa=Fraction(1, 64))
        assert [level_volume_lower_bound(params, j) for j in (3, 4, 5)] == [
            5.0048828125000004e-05, 4.8141479492187504e-05, 4.756450653076172e-05
        ]

    @pytest.mark.parametrize("kappa", [0.25, Fraction(1, 64)], ids=["desk", "kappa_1_64"])
    @pytest.mark.parametrize("j", [2, 3, 4, 5])
    def test_matches_disjoint_interval_sweep(self, kappa, j):
        params = desk_params(kappa=kappa)
        assert level_volume_lower_bound(params, j) == _oracle_volume_sweep(params, j)

    def test_rejects_fractional_dimension(self):
        params = CounterexampleParams(d=1, alpha=0.5, lam=625, delta=0.01, kappa=1 / 5)
        with pytest.raises(ValueError, match="alpha = d"):
            level_volume_lower_bound(params, 3)
