"""The 1-D separated packing against the anchor-by-anchor greedy, and the
integer audit against hand-made violations."""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from talbot_lab import fractal
from talbot_lab.fractal import (
    Cube,
    CubeFamily,
    _lattice_scan_1d,
    audit_separated_family,
    audit_separated_maximal,
    build_nested_levels,
    separated_cubes,
)

E0 = Cube((1,), 8, Fraction(0), Fraction(1, 8))
BETAS = [Fraction(2), Fraction(5, 2), Fraction(4), Fraction(6)]
PROPERTY = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _oracle_scan_1d(lo, hi, q_lo, q_hi):
    """Anchors (p, q) with p/q in [lo, hi] and p >= 0, ordered by (q, p)."""
    lo_f, hi_f = float(lo), float(hi)
    chunk = 1 << 20
    for start in range(q_lo, q_hi + 1, chunk):
        stop = min(start + chunk, q_hi + 1)
        qs = np.arange(start, stop, dtype=np.float64)
        slack = 1e-9 + np.abs(qs) * (abs(lo_f) + abs(hi_f)) * 1e-12
        p_lo = np.ceil(qs * lo_f - slack)
        p_hi = np.floor(qs * hi_f + slack)
        for i in np.nonzero(p_hi >= p_lo)[0]:
            q = start + int(i)
            for p in range(max(int(p_lo[i]) - 1, 0), int(p_hi[i]) + 2):
                if p * lo.denominator >= lo.numerator * q and p * hi.denominator <= hi.numerator * q:
                    yield p, q


def _exact_q_lo(n, beta):
    """ceil(n / beta), exactly."""
    return math.ceil(Fraction(n) / Fraction(beta))


def oracle_separated_1d(c, n, beta=4, max_cubes=None):
    """Reference greedy: every candidate, in (q, p) order, checked one at a
    time against the accepted anchors in its float bucket and the two
    neighbouring buckets."""
    beta = Fraction(beta)
    q_lo = _exact_q_lo(n, beta)
    margin = (beta / n) ** 2
    gap = 3 * margin
    gap_f = float(gap)
    lo, hi = c.lo_corner(0) + margin, c.hi_corner(0) - margin
    if lo > hi:
        raise ValueError("margin exceeds the cube")
    accepted, buckets = [], {}
    for p, q in _oracle_scan_1d(lo, hi, q_lo, n):
        key = int(p / q / gap_f)
        if all(
            abs(p * q2 - p2 * q) * gap.denominator > gap.numerator * q * q2
            for k in (key - 1, key, key + 1)
            for p2, q2 in buckets.get(k, ())
        ):
            accepted.append(((p,), q))
            buckets.setdefault(key, []).append((p, q))
            if max_cubes is not None and len(accepted) >= max_cubes:
                break
    return accepted


def _assert_matches_oracle(parent, n, beta, max_cubes):
    margin = (beta / n) ** 2
    if 2 * margin > parent.hi - parent.lo:
        with pytest.raises(ValueError, match="margin"):
            separated_cubes(parent, n, 2, beta=beta, max_cubes=max_cubes)
        return
    if parent.lo_corner(0) + margin < 0:
        with pytest.raises(ValueError, match="below 0"):
            separated_cubes(parent, n, 2, beta=beta, max_cubes=max_cubes)
        return
    fam = separated_cubes(parent, n, 2, beta=beta, max_cubes=max_cubes)
    assert [(cb.p, cb.q) for cb in fam] == oracle_separated_1d(parent, n, beta, max_cubes)
    audit_separated_family(parent, fam, 2)


max_cubes_st = st.one_of(st.none(), st.integers(1, 64))


@PROPERTY
@given(
    q=st.integers(1, 64),
    p_frac=st.fractions(0, 1),
    off=st.fractions(Fraction(-1, 8), 1, max_denominator=256),
    spread=st.integers(3, 1 << 14),
    beta=st.sampled_from(BETAS),
    max_cubes=max_cubes_st,
    data=st.data(),
)
def test_packing_matches_greedy_oracle(q, p_frac, off, spread, beta, max_cubes, data):
    # n <= 3 beta^2: anchors sharing q can clash
    n = data.draw(st.one_of(st.integers(12, math.floor(3 * beta**2)), st.integers(16, 1 << 10)))
    # a window of about spread beta^2 / 2 candidates, capped to keep the oracle fast
    width = (beta / n) ** 2 * min(spread, (1 << 14) // math.ceil(beta**2))
    parent = Cube((int(p_frac * q),), q, off, off + width)
    _assert_matches_oracle(parent, n, beta, max_cubes)


@PROPERTY
@given(
    q=st.integers(32, 256),
    p_frac=st.fractions(Fraction(1, 8), Fraction(1, 4)),
    n=st.integers(1 << 17, 1 << 21),
    beta=st.sampled_from(BETAS),
    max_cubes=st.integers(1, 64),
)
def test_narrow_parent_matches_greedy_oracle(q, p_frac, n, beta, max_cubes):
    # nested-style parents far narrower than 1/q: products leave int64
    parent = Cube((int(p_frac * q),), q, Fraction(1, 200 * q * q), Fraction(1, 100 * q * q))
    _assert_matches_oracle(parent, n, beta, max_cubes)


def test_same_denominator_clashes_match_greedy_oracle():
    # gap = 3 (6/16)^2 > 1/q for every q in [3, 16]
    parent = Cube((0,), 1, Fraction(0), Fraction(1))
    fam = separated_cubes(parent, 16, 2, beta=6)
    assert fam.meta["anchor_gap"] * 3 > 1
    _assert_matches_oracle(parent, 16, Fraction(6), None)


@pytest.mark.parametrize("max_cubes", [0, -1])
def test_max_cubes_below_one_rejected(max_cubes):
    with pytest.raises(ValueError, match="max_cubes"):
        separated_cubes(E0, 64, 2, max_cubes=max_cubes)


def test_oversized_slot_store_matches_greedy_oracle():
    # lo corner + margin = 0 keeps every product in int64, but the window
    # holds about 5.6e6 gap-wide slots, too many for a dense store
    n = 1 << 15
    margin = Fraction(4, n) ** 2
    parent = Cube((0,), 1, -margin, Fraction(1))
    _assert_matches_oracle(parent, n, Fraction(4), 16)


def test_nested_levels_match_greedy_oracle():
    families, plan = build_nested_levels(1, 2, 64, 2, retain=2)
    for parents, n in zip(([E0], families[0]), plan.n):
        for parent in parents:
            _assert_matches_oracle(parent, n, Fraction(4), 64)


def _run_of(parent, n, beta):
    """q -> the index of the dense packer's run of denominators that holds q."""
    lo_b, hi_b, _, _, q_lo = fractal._packing_window(parent, n, beta)
    runs = fractal._denominator_runs(fractal._candidate_scan_1d(lo_b, hi_b, q_lo, n))
    return {q: i for i, run in enumerate(runs) for q, _, _ in run}


@pytest.mark.parametrize("n", [1 << 9, 1 << 10, 1 << 11])
def test_root_cube_across_runs_matches_greedy_oracle(n):
    # 11, 21 and 64 runs of denominators, many with survivors that clash
    assert len(set(_run_of(E0, n, 4).values())) > 10
    _assert_matches_oracle(E0, n, Fraction(4), None)


@pytest.mark.parametrize(
    "parent, n, beta, first, later",
    [
        # unreduced twins 34/85 = 36/90 = 2/5
        (Cube((0,), 14, Fraction(25, 64), Fraction(284425, 652864)), 202, Fraction(5, 2),
         (34, 85), (36, 90)),
        # 149/83 and 158/88 are 1/3652 apart, within the gap 3 (2/146)^2
        (Cube((4,), 5, Fraction(63, 64), Fraction(339759, 341056)), 146, Fraction(2),
         (149, 83), (158, 88)),
    ],
)
def test_clash_within_one_run_matches_greedy_oracle(parent, n, beta, first, later):
    # the earlier denominator's anchor survives the store and takes the
    # later one's place inside the run that holds both
    runs = _run_of(parent, n, beta)
    assert runs[first[1]] == runs[later[1]]
    fam = separated_cubes(parent, n, 2, beta=beta)
    anchors = list(zip(fam.p, fam.q))
    assert first in anchors and later not in anchors
    _assert_matches_oracle(parent, n, beta, None)


def test_max_cubes_filling_mid_run_matches_greedy_oracle():
    # at n = 512 the run of q = 143..157 takes anchors 211..332, after
    # in-run clashes from anchor 281 on
    full = separated_cubes(E0, 512, 2)
    runs = _run_of(E0, 512, 4)
    assert runs[full.q[309]] == runs[full.q[310]] == runs[143] == runs[157]
    _assert_matches_oracle(E0, 512, Fraction(4), 310)


def test_early_stop_reads_about_twice_the_denominators_it_needs(monkeypatch):
    read = []
    scan = fractal._candidate_scan_1d

    def counted(*args):
        for triple in scan(*args):
            read.append(triple[0])
            yield triple

    monkeypatch.setattr(fractal, "_candidate_scan_1d", counted)
    families, plan = build_nested_levels(1, 2, 256, 2, retain=1)
    # nested level 1 (n1 = 256 and 1024) and level 2, and larger caps
    cases = [(E0, 256, 64), (E0, 1024, 64), (E0, 1024, 1000), (E0, 1 << 12, 20000)]
    cases.append((families[0][0], plan.n[1], 64))
    for parent, n, cap in cases:
        read.clear()
        fam = separated_cubes(parent, n, 2, max_cubes=cap)
        assert len(fam) == cap
        needed = read.index(fam.q[-1]) + 1
        assert len(read) <= 2 * needed


def _lattice_pairs(lo, hi, q_lo, q_hi, limit=None):
    """The lattice source's triples as (p, q) pairs, in _oracle_scan_1d's form."""
    triples = _lattice_scan_1d(lo, hi, q_lo, q_hi)
    return list(islice(((p, q) for q, p0, p1 in triples for p in range(p0, p1 + 1)), limit))


@PROPERTY
@given(
    den=st.one_of(st.integers(1, 16), st.integers(1 << 20, 1 << 40)),
    rnd=st.randoms(use_true_random=False),
    k=st.integers(0, (1 << 20) - 1),
    u=st.fractions(0, 1, max_denominator=64),
    data=st.data(),
)
def test_lattice_scan_matches_oracle_on_narrow_windows(den, rnd, k, u, data):
    # a uniform numerator: drawn integers cluster at 0
    x = Fraction(rnd.randint(0, 5 * den // 4), den)
    # the center's q_hi/den unreduced multiples all fit, so q_hi stays below
    # 2^10 den: at most 2^11 of them
    e = data.draw(st.sampled_from(range(min(24, 10 + x.denominator.bit_length()) + 1)))
    q_hi = data.draw(st.integers(1 << max(e - 1, 0), 1 << e))
    q_lo = data.draw(st.integers(1, q_hi))
    # width w < 1/q_hi, and w q_hi^2 / 2 <= 2^11 candidates around a generic center
    w = Fraction(k, 1 << 20) / q_hi * min(1, Fraction(1 << 12, q_hi))
    # the walk needs lo >= 0; windows near 0 then start at 0 exactly
    lo = max(x - u * w, Fraction(0))
    assert w * q_hi < 1
    assert _lattice_pairs(lo, lo + w, q_lo, q_hi) == list(_oracle_scan_1d(lo, lo + w, q_lo, q_hi))


@pytest.mark.parametrize(
    "lo, hi",
    [
        (Fraction(3, 7), Fraction(3, 7)),  # zero width, at a small denominator
        (Fraction(0), Fraction(0)),  # zero width at 0: no mediant lies in the window
        (Fraction(1, 3) + Fraction(1, 1 << 1100),) * 2,  # zero width, denominator past a double
        (Fraction(0), Fraction(1, 1 << 20)),  # lo = 0 = left bracket 0/1, A = 0
        (Fraction(1, 3), Fraction(1, 3) + Fraction(1, 1 << 30)),  # endpoint at the mediant
        (Fraction(1, 3) - Fraction(1, 1 << 30), Fraction(1, 3)),
        (Fraction(1, 3) - Fraction(1, 1 << 30), Fraction(1, 3) + Fraction(1, 1 << 30)),
        (Fraction(1, 2) + Fraction(1, 1 << 30), Fraction(1, 2) + Fraction(1, 1 << 29)),
        # width just below 1/q_hi: the widest window the walk gets
        (Fraction(1, 3), Fraction(1, 3) + Fraction(1, 1 << 14) - Fraction(1, 1 << 60)),
        (Fraction(1), Fraction(1) + Fraction(1, 1 << 30)),  # lo = 1/1, the root mediant
        (Fraction(7, 5), Fraction(7, 5) + Fraction(1, 1 << 30)),  # above 1: right bracket 1/0
    ],
)
@pytest.mark.parametrize("q_lo, q_hi", [(1, 1 << 14), (1000, 4321)])
def test_lattice_scan_matches_oracle_on_edge_windows(lo, hi, q_lo, q_hi):
    assert (hi - lo) * q_hi < 1
    assert _lattice_pairs(lo, hi, q_lo, q_hi) == list(_oracle_scan_1d(lo, hi, q_lo, q_hi))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(1 << 20, 1 << 34),
    p_frac=st.fractions(Fraction(1, 8), Fraction(1, 4)),
    density=st.integers(8, 12),
)
def test_lattice_scan_prefix_matches_oracle_on_nested_windows(n, p_frac, density):
    # a nested parent p/q + [1/(200 q^2), 1/(100 q^2)] minus the margin
    # (4/n)^2, with q picked so about 2^-density anchors fall per denominator
    # near n/4: the oracle then finds 200 of them within a few chunks.  The
    # anchor is reduced, as nested anchors are, or no q' <= n could fit.
    q_lo = n // 4
    q = math.isqrt((q_lo << density) // 200)
    p = int(p_frac * q)
    while math.gcd(p, q) != 1:
        p += 1
    margin = Fraction(4, n) ** 2
    lo = Fraction(p, q) + Fraction(1, 200 * q * q) + margin
    hi = Fraction(p, q) + Fraction(1, 100 * q * q) - margin
    assert (hi - lo) * n < 1
    expected = list(islice(_oracle_scan_1d(lo, hi, q_lo, n), 200))
    assert _lattice_pairs(lo, hi, q_lo, n, 200) == expected


@PROPERTY
@given(
    q_lo=st.one_of(st.integers(1, 1 << 7), st.integers(1 << 40, 1 << 42)),
    span=st.integers(0, 1 << 7),
    split=st.integers(-(1 << 7), 1 << 8),
    u=st.fractions(0, Fraction(63, 64), max_denominator=64),
    x=st.fractions(0, 2, max_denominator=64),
    v=st.fractions(0, 1, max_denominator=64),
    zero_width=st.booleans(),
)
# q* = 2 and w = 1/2: [1/3, 5/6] holds no anchor with q = 1 = q* - 1
@example(q_lo=1, span=4, split=1, u=Fraction(0), x=Fraction(1, 3), v=Fraction(0), zero_width=False)
def test_candidate_scan_matches_oracle(q_lo, span, split, u, x, v, zero_width):
    # q* = ceil(1/w) = s falls below q_lo, inside [q_lo, q_hi], or past q_hi
    q_hi = q_lo + span
    s = max(q_lo + split, 1)
    if zero_width:
        w = Fraction(0)
    elif s == 1:
        w = 1 + u  # w >= 1: every q holds an anchor
    else:
        w = Fraction(1, s) + u * (Fraction(1, s - 1) - Fraction(1, s))
        assert math.ceil(1 / w) == s
    # the scan needs lo >= 0; windows near 0 then start at 0 exactly
    lo = max(x - v * w, Fraction(0))
    triples = list(fractal._candidate_scan_1d(lo, lo + w, q_lo, q_hi))
    assert all(p0 <= p1 for _, p0, p1 in triples)
    got = [(p, q) for q, p0, p1 in triples for p in range(p0, p1 + 1)]
    assert got == list(_oracle_scan_1d(lo, lo + w, q_lo, q_hi))


@pytest.mark.parametrize(
    "parent, n",
    [
        (Cube((0,), 1, Fraction(-1, 8), Fraction(1, 8)), 64),  # straddles 0
        (Cube((0,), 1, Fraction(-1, 1 << 20), Fraction(1, 1 << 20)), 1 << 14),  # narrow
        (Cube((0,), 1, Fraction(-1, 2), Fraction(-1, 4)), 64),  # entirely below 0
    ],
)
def test_window_below_zero_rejected(parent, n):
    # no anchor is packed on one side of 0 alone, nor wrapped around the torus
    with pytest.raises(ValueError, match="below 0"):
        separated_cubes(parent, n, 2)
    with pytest.raises(ValueError, match="below 0"):
        audit_separated_maximal(parent, n, 2, 4, CubeFamily([], [], -1, 1, 2))


def test_denominator_window_is_exact():
    # n / beta = 16 + 10^-13: a float ceil with a 1e-9 slack admits q = 16
    beta = Fraction(64 * 10**13, 16 * 10**13 + 1)
    parent = Cube((0,), 1, Fraction(0), Fraction(1))
    fam = separated_cubes(parent, 64, 2, beta=beta)
    assert min(fam.q) == 17
    _assert_matches_oracle(parent, 64, beta, None)
    audit_separated_maximal(parent, 64, 2, beta, fam)


def test_maximality_audit_on_narrow_parent():
    families, _ = build_nested_levels(1, 2, 64, 1)
    parent, n = families[0][1], 1 << 14
    assert parent.hi - parent.lo < Fraction(1, n)
    fam = separated_cubes(parent, n, 2)
    assert len(fam) > 2
    audit_separated_maximal(parent, n, 2, 4, fam)
    dropped = replace(fam, p=fam.p[:1] + fam.p[2:], q=fam.q[:1] + fam.q[2:])
    with pytest.raises(AssertionError, match="not maximal"):
        audit_separated_maximal(parent, n, 2, 4, dropped)


def test_maximality_audit_of_uncapped_level_one_parent():
    # n = 2^15 inside the level-1 parent at 4/17: 279 accepted anchors, each
    # candidate checked against the three slots around it, not all 279
    families, _ = build_nested_levels(1, 2, 64, 1)
    parent, n = families[0][3], 1 << 15
    fam = separated_cubes(parent, n, 2)
    assert len(fam) == 279
    audit_separated_maximal(parent, n, 2, 4, fam)
    dropped = replace(fam, p=fam.p[:-1], q=fam.q[:-1])
    with pytest.raises(AssertionError, match="not maximal"):
        audit_separated_maximal(parent, n, 2, 4, dropped)


def _oracle_is_maximal(c, n, beta, family):
    """Every admissible anchor clashes with some accepted one, each candidate
    checked against every accepted anchor."""
    margin, gap = family.meta["margin"], family.meta["anchor_gap"]
    q_lo = _exact_q_lo(n, beta)
    accepted = list(zip(family.p, family.q))
    return all(
        any(abs(p * q2 - p2 * q) * gap.denominator <= gap.numerator * q * q2 for p2, q2 in accepted)
        for p, q in _oracle_scan_1d(c.lo_corner(0) + margin, c.hi_corner(0) - margin, q_lo, n)
    )


@PROPERTY
@given(
    q=st.integers(1, 64),
    p_frac=st.fractions(0, 1),
    n=st.integers(12, 1 << 9),
    spread=st.integers(3, 1 << 9),
    beta=st.sampled_from(BETAS),
    rnd=st.randoms(use_true_random=False),
)
def test_maximality_audit_matches_quadratic_oracle(q, p_frac, n, spread, beta, rnd):
    parent = Cube((int(p_frac * q),), q, Fraction(0), (beta / n) ** 2 * spread)
    if 2 * (beta / n) ** 2 > parent.hi - parent.lo:
        return
    fam = separated_cubes(parent, n, 2, beta=beta)
    kept = [i for i in range(len(fam)) if rnd.random() < 0.9]
    thinned = replace(fam, p=[fam.p[i] for i in kept], q=[fam.q[i] for i in kept])
    if _oracle_is_maximal(parent, n, beta, thinned):
        audit_separated_maximal(parent, n, 2, beta, thinned)
    else:
        with pytest.raises(AssertionError, match="not maximal"):
            audit_separated_maximal(parent, n, 2, beta, thinned)


def _oracle_twin_order(anchors, t, c1, c2):
    """The stable sort of the twins p/q + [c1/q^t, c2/q^t] by Fraction lo
    corner, as indices, and float() of the smallest neighbour gap."""
    twins = [Cube((p,), q, c1 / q**t, c2 / q**t) for p, q in anchors]
    order = sorted(range(len(twins)), key=lambda i: twins[i].lo_corner(0))
    gap = min(twins[j].lo_corner(0) - twins[i].hi_corner(0) for i, j in zip(order, order[1:]))
    return order, float(gap)


anchor_st = st.one_of(st.integers(1, 64), st.integers(1 << 30, 1 << 40)).flatmap(
    lambda q: st.tuples(st.integers(0, q), st.just(q))
)


@PROPERTY
@given(
    base=st.lists(anchor_st, min_size=1, max_size=24),
    scales=st.lists(st.integers(1, 4), max_size=24),
    t=st.integers(2, 4),
    c1=st.fractions(Fraction(1, 1000), 1, max_denominator=1000),
    width=st.fractions(Fraction(1, 1000), 1, max_denominator=1000),
    data=st.data(),
)
def test_twin_order_and_gap_match_fraction_oracle(base, scales, t, c1, width, data):
    # unreduced multiples k p/k q beside their anchor (2/8 next to 1/4), and
    # exact repeats (k = 1) whose ties only a stable sort orders
    anchors = data.draw(st.permutations(base + [(k * p, k * q) for (p, q), k in zip(base, scales)]))
    if len(anchors) < 2:
        anchors = anchors + anchors
    c2 = c1 + width
    twins = CubeFamily([p for p, _ in anchors], [q for _, q in anchors], c1, c2, t)
    assert fractal._twin_order(twins) == _oracle_twin_order(anchors, t, c1, c2)


def _old_member(rule, p, q, t, c1, c2):
    """The Cube each builder made per anchor before families held anchors:
    separated_cubes' ball, build_nested_levels' twin."""
    if rule == "separated":
        r = Fraction(1, q**t)
        return Cube((p,), q, -r, r)
    q_t = q**t
    return Cube((p,), q, c1 / q_t, c2 / q_t)


@PROPERTY
@given(
    base=st.lists(anchor_st, min_size=1, max_size=12),
    scales=st.lists(st.integers(1, 4), max_size=12),
    rule=st.sampled_from(["separated", "nested"]),
    t=st.integers(2, 4),
    c1=st.fractions(Fraction(1, 1000), 1, max_denominator=1000),
    width=st.fractions(Fraction(1, 1000), 1, max_denominator=1000),
)
def test_materialized_cubes_match_old_construction(base, scales, rule, t, c1, width):
    # unreduced multiples k p/k q beside their anchors, with q up to 2^42
    anchors = base + [(k * p, k * q) for (p, q), k in zip(base, scales)]
    ps, qs = [p for p, _ in anchors], [q for _, q in anchors]
    c2 = c1 + width
    offsets = {"separated": (Fraction(-1), Fraction(1), t), "nested": (c1, c2, t)}
    family = CubeFamily(ps, qs, *offsets[rule])
    members = list(family)
    assert len(members) == len(family) == len(anchors)
    for i, (p, q) in enumerate(anchors):
        old = _old_member(rule, p, q, t, c1, c2)
        for cube in (members[i], family[i]):
            assert cube == old
            assert (str(cube.lo), str(cube.hi)) == (str(old.lo), str(old.hi))


def test_meta_records_code_path():
    wide = separated_cubes(E0, 1 << 10, 2)
    assert wide.meta["store"] == "dense"
    families, plan = build_nested_levels(1, 2, 256, 2, retain=1)
    narrow = separated_cubes(families[1][0], plan.n[1] * 4096, 2, max_cubes=64)
    assert narrow.meta["store"] == "sparse"


class TestIntegerAudit:
    @pytest.fixture()
    def family(self):
        return separated_cubes(E0, 256, 2)

    @staticmethod
    def _with(family, anchors):
        """The family with its anchors replaced by (p, q) pairs, rule and meta kept."""
        return replace(family, p=[p for p, _ in anchors], q=[q for _, q in anchors])

    @staticmethod
    def _anchors(family):
        return list(zip(family.p, family.q))

    def test_equal_rationals_raise(self, family):
        # the unreduced twin 2p/2q, whose ball 1/(2q)^2 the rule gives
        p, q = self._anchors(family)[len(family) // 2]
        twin = self._with(family, self._anchors(family) + [(2 * p, 2 * q)])
        with pytest.raises(AssertionError, match="too close"):
            audit_separated_family(E0, twin, 2)

    def test_one_quarter_and_two_eighths_raise(self):
        parent = Cube((0,), 1, Fraction(0), Fraction(1))
        meta = {"n": 64, "margin": Fraction(1, 4096), "anchor_gap": Fraction(3, 4096)}
        fam = CubeFamily([1, 2], [4, 8], -1, 1, 2, meta)
        with pytest.raises(AssertionError, match="too close"):
            audit_separated_family(parent, fam, 2)

    def test_anchor_within_gap_raises(self, family):
        p, q = self._anchors(family)[len(family) // 2]
        near = Fraction(p, q) + family.meta["anchor_gap"] / 2
        anchors = self._anchors(family) + [(near.numerator, near.denominator)]
        with pytest.raises(AssertionError, match="too close"):
            audit_separated_family(E0, self._with(family, anchors), 2)

    def test_anchor_inside_margin_raises(self, family):
        stray = E0.lo_corner(0) + family.meta["margin"] / 2
        anchors = [(stray.numerator, stray.denominator)] + self._anchors(family)
        with pytest.raises(AssertionError, match="margin"):
            audit_separated_family(E0, self._with(family, anchors), 2)

    def test_cube_leaving_parent_raises(self, family):
        # 1/7 is inside the window [1/8, 1/4] shrunk by the margin 1/4096, but
        # its ball 1/49 reaches below 1/8
        anchors = [(1, 7)] + self._anchors(family)
        with pytest.raises(AssertionError, match="leaves the parent"):
            audit_separated_family(E0, self._with(family, anchors), 2)

    def test_separation_below_guarantee_raises(self, family):
        # 11/64 and 12/64 are 64/4096 apart; under the rule (-1, hi, 2) the
        # gap between their cubes is (64 - 1 - hi)/4096, against n^-2 = 1/65536
        pair = self._with(family, [(11, 64), (12, 64)])
        audit_separated_family(E0, replace(pair, hi=Fraction(62)), 2)
        with pytest.raises(AssertionError, match="separation"):
            audit_separated_family(E0, replace(pair, hi=Fraction(63)), 2)

    def test_radius_exponent_other_than_tau_raises(self, family):
        with pytest.raises(AssertionError, match="radius exponent"):
            audit_separated_family(E0, family, 3)
        # checked before anything else, so an empty family is rejected too
        with pytest.raises(AssertionError, match="radius exponent"):
            audit_separated_family(E0, self._with(family, []), 3)
        with pytest.raises(ValueError, match="tau"):
            audit_separated_family(E0, family, 2.5)

    def test_float_ties_are_ordered_exactly(self):
        # level-3 anchors lie closer than a double can tell apart
        families, plan = build_nested_levels(1, 2, 256, 2, retain=4)
        parent = families[1][0]
        fam = separated_cubes(parent, plan.n[1] * 4096, 2, max_cubes=64)
        keys = [p / q for p, q in zip(fam.p, fam.q)]
        assert len(set(keys)) < len(keys)
        audit_separated_family(parent, fam, 2)

    @pytest.mark.parametrize("bits", [31, 32])
    def test_sort_keys_at_the_int64_edge(self, bits):
        # with q = 2^bits - 1 the sort keys floor(p 4^bits / q) of (q-1)/q and
        # (q-2)/(q-1) are near 2^62 (int64) or 2^64 (beyond it), and a double
        # ties them; given in decreasing order, only an exact sort passes
        q = 2**bits - 1
        gap = Fraction(1, q * (q - 1))  # (q-1)/q - (q-2)/(q-1)
        parent = Cube((0,), 1, Fraction(0), Fraction(1))
        keys = [((q - 1) << 2 * bits) // q, ((q - 2) << 2 * bits) // (q - 1)]
        assert (max(keys) < 2**63) == (bits == 31)
        assert float(keys[0]) == float(keys[1])
        for anchor_gap, passes in [(gap * Fraction(9, 10), True), (gap, False)]:
            meta = {"n": 2 * q, "margin": Fraction(1, 2 * q), "anchor_gap": anchor_gap}
            fam = CubeFamily([q - 1, q - 2], [q, q - 1], Fraction(-1, 8), Fraction(1, 8), 2,
                             meta)
            if passes:
                audit_separated_family(parent, fam, 2)
            else:
                with pytest.raises(AssertionError, match="too close"):
                    audit_separated_family(parent, fam, 2)


class TestObjectAudit(TestIntegerAudit):
    """Every audit above again, with the bound forcing object arrays."""

    @pytest.fixture(autouse=True)
    def _object_arrays(self, monkeypatch):
        monkeypatch.setattr(fractal, "_exact_dtype", lambda magnitude: object)


@pytest.mark.parametrize("q, dtype", [(55108, np.int64), (55109, object)])
def test_separation_at_the_int64_edge(monkeypatch, q, dtype):
    # balls B(1/q, q^-2) and B(2/q, q^-2) over den = q^2: the separation
    # check forms den den = q^4, just below 2^63 at q = 55108 and just above
    # at 55109, where int64 would wrap and pass every pair
    assert (q**4 < 2**63) == (dtype is np.int64)
    chosen = []
    exact_dtype = fractal._exact_dtype
    monkeypatch.setattr(fractal, "_exact_dtype", lambda m: chosen.append(exact_dtype(m)) or chosen[-1])
    parent = Cube((0,), 1, Fraction(0), Fraction(1))
    # the cubes are (q - 2)/q^2 apart: at least n^-2 for n = 235, not for 234
    for n, passes in [(235, True), (234, False)]:
        meta = {"n": n, "margin": Fraction(0), "anchor_gap": Fraction(1, 2 * q)}
        fam = CubeFamily([1, 2], [q, q], -1, 1, 2, meta)
        chosen.clear()
        if passes:
            audit_separated_family(parent, fam, 2)
        else:
            with pytest.raises(AssertionError, match="separation"):
                audit_separated_family(parent, fam, 2)
        assert chosen == [dtype]


def test_non_integer_tau_rejected():
    with pytest.raises(ValueError, match="tau"):
        separated_cubes(E0, 64, 2.5)
    # tau is checked before the window: [-1/2, -1/4] is rejected only after it
    negative = Cube((0,), 1, Fraction(-1, 2), Fraction(-1, 4))
    with pytest.raises(ValueError, match="below 0"):
        separated_cubes(negative, 64, 2)
    with pytest.raises(ValueError, match="tau"):
        separated_cubes(negative, 64, 2.5)
    with pytest.raises(ValueError, match="tau"):
        build_nested_levels(1, Fraction(5, 2), 64, 1)
    # a negative tau has no integer radius 1/q^tau either
    with pytest.raises(ValueError, match="tau"):
        separated_cubes(E0, 64, -1)


@pytest.mark.parametrize("tau", [0, 1])
@pytest.mark.parametrize(
    "call",
    [
        lambda tau: separated_cubes(E0, 256, tau),
        lambda tau: build_nested_levels(1, tau, 256, 2),
        lambda tau: audit_separated_family(E0, separated_cubes(E0, 256, 2), tau),
    ],
    ids=["separated_cubes", "build_nested_levels", "audit_separated_family"],
)
def test_radius_exponent_below_two_rejected(call, tau):
    # a ball of radius 1/q^tau fits the margin (beta/n)^2 only for tau >= 2:
    # tau = 0 and 1 would pack cubes that leave their parent
    with pytest.raises(ValueError, match=f"tau = {tau}: .* integer tau >= 2"):
        call(tau)


def test_integral_float_tau_is_exact():
    fam = separated_cubes(E0, 64, 2.0)
    assert [cb.hi for cb in fam] == [Fraction(1, cb.q**2) for cb in fam]
