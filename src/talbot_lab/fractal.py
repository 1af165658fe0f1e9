"""Rational-anchor cube families and dimension machinery.

Exact counts of the level-j anchored cube families, read from their
denominator window and never built, greedy separated-cube packings with
their exact audits, nested Cantor-type constructions, and the
mass-distribution dimension bound.

Cubes are one-dimensional.  A CubeFamily holds no cubes: its members are
exact integer anchors (p, q) and one exact offset rule shared by all of
them, member = p/q + [lo/q^t, hi/q^t], whose radius exponent t is an
integer >= 2.  The packings use (-1, 1, tau), the nested twins
(1/200, 1/100, tau), CounterexampleParams' offset window.  Anchors are
integers: Cube and CubeFamily take Python or numpy integers, store Python
ints and reject anything else with ValueError.  The audits read corners as
integers straight from anchors and rule; a Cube is built only when a caller
iterates or indexes a family.  The nested build has one fixed shape: it
packs the root cube [1/8, 1/4], its twins sit at offsets (1/200, 1/100),
and its denominator bound grows x4096 per level, n_k = 4096^(k-1) n1.  The
level counts, the nested builds and the volume bound reject d >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from typing import Sequence

import numpy as np

from .counterexample import CounterexampleParams, anchor_range
from .expsum import _integers

# largest dense slot store of the 1-D packing: two int64 arrays of 32 MiB
_DENSE_SLOTS = 1 << 22

# most candidates one step of the dense 1-D packing checks at once
_DENSE_RUN = 1 << 12

# most level-j anchors level_volume_lower_bound enumerates
_LEVEL_CUBES = 1 << 20


@dataclass(frozen=True)
class Cube:
    """Closed interval [p/q + lo, p/q + hi] anchored at the rational p/q,
    with p a one-tuple; a centered ball of radius r is the case lo = -r,
    hi = r.  Coordinates live in the unit torus [0, 1] (cycle units;
    multiply by 2 pi for radians).  Any other d raises ValueError.
    """

    p: tuple[int, ...]
    q: int
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        *p, q = _integers("cube anchors", (*self.p, self.q))
        object.__setattr__(self, "p", tuple(p))
        object.__setattr__(self, "q", q)
        _require_1d(self.d)
        if q < 1:
            raise ValueError("anchor denominator must be positive")
        if not self.lo < self.hi:
            raise ValueError("cube needs lo < hi")

    @property
    def d(self) -> int:
        return len(self.p)

    def lo_corner(self, i: int) -> Fraction:
        return Fraction(self.p[i], self.q) + self.lo

    def hi_corner(self, i: int) -> Fraction:
        return Fraction(self.p[i], self.q) + self.hi


@dataclass
class CubeFamily:
    """Finite 1-D cube family, with provenance.

    Member i is the cube p[i]/q[i] + [lo/q[i]^t, hi/q[i]^t]: exact integer
    anchors, unreduced ones allowed, and one exact offset rule (lo, hi, t)
    with lo < hi and t an integer >= 2 (_tau_exponent).  Indexing or
    iterating builds the member as a Cube((p,), q, lo/q^t, hi/q^t); nothing
    else does.
    """

    p: list[int]
    q: list[int]
    lo: Fraction
    hi: Fraction
    t: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.lo, self.hi = Fraction(self.lo), Fraction(self.hi)
        self.p, self.q = _integers("anchors p", self.p), _integers("anchors q", self.q)
        self.t = _tau_exponent(self.t)
        if len(self.p) != len(self.q):
            raise ValueError(f"{len(self.p)} numerators for {len(self.q)} denominators")
        if self.q and min(self.q) < 1:
            raise ValueError("anchor denominator must be positive")
        if not self.lo < self.hi:
            raise ValueError("cube family needs lo < hi")

    def __len__(self) -> int:
        return len(self.q)

    def __getitem__(self, i: int) -> Cube:
        q_t = self.q[i] ** self.t
        return Cube((self.p[i],), self.q[i], self.lo / q_t, self.hi / q_t)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _require_1d(d: int) -> None:
    if d != 1:
        raise ValueError(f"cubes and their constructions are one-dimensional; got d = {d}")


def level_cube_count(params: CounterexampleParams, j: int) -> int:
    """Exact cube count of the level-j family, read from its window alone.

    At q = 4m the anchor count is v = floor(m/2) + 1, taken at m = 2v - 2 and
    2v - 1, so the window sums each v twice, less the ends it takes once:
    a first q = 4 (mod 8) and a last q = 0 (mod 8).  One-dimensional only:
    d >= 2 raises ValueError.
    """
    _require_1d(params.d)
    qs = params.q_window(j)
    if not qs:
        return 0
    lo, hi = len(anchor_range(qs[0])), len(anchor_range(qs[-1]))
    total = hi * (hi + 1) - (lo - 1) * lo
    return total - (lo if qs[0] % 8 else 0) - (0 if qs[-1] % 8 else hi)


def _tau_exponent(tau) -> int:
    """tau as the integer exponent t of the exact radius 1/q^t; tau must be
    an integer >= 2 (2, 2.0 and Fraction(2) all are): below 2 a ball of
    radius 1/q^tau need not fit the packing's margin (beta/n)^2."""
    exponent = Fraction(tau)
    if exponent.denominator != 1 or exponent < 2:
        raise ValueError(f"tau = {tau!r}: a radius 1/q^tau needs an integer tau >= 2")
    return exponent.numerator


def _packing_window(
    c: Cube, n: int, beta
) -> tuple[Fraction, Fraction, Fraction, Fraction, int]:
    """(lo_b, hi_b, margin, gap, q_lo) of the packing of the 1-D cube c at
    denominator n, exactly: margin = (beta/n)^2, gap = 3 margin, the window
    [lo_b, hi_b] = [lo corner + margin, hi corner - margin] and
    q_lo = ceil(n/beta), so the denominators are q_lo..n.

    Raises ValueError unless beta > 1, the denominators include some q >= 1,
    the margin fits inside c, and lo_b >= 0: a window reaching below 0 would
    need anchors p < 0, and nothing is wrapped around the torus.
    """
    beta = Fraction(beta)
    if beta <= 1:
        raise ValueError("beta must exceed 1")
    q_lo = -(-n * beta.denominator // beta.numerator)
    if n < max(q_lo, 1):
        raise ValueError(f"denominator window [{n}/{beta}, {n}] holds no q >= 1")
    margin = (beta / n) ** 2
    lo_b = c.lo_corner(0) + margin
    hi_b = c.hi_corner(0) - margin
    if lo_b > hi_b:
        raise ValueError("margin exceeds the cube; n is too small for the window")
    if lo_b < 0:
        raise ValueError(
            f"window starts below 0 (lo corner + margin = {lo_b}); anchors p/q < 0 "
            "are not packed, and nothing wraps around the torus"
        )
    return lo_b, hi_b, margin, 3 * margin, q_lo


def _candidate_scan_1d(lo: Fraction, hi: Fraction, q_lo: int, q_hi: int):
    """Iterator of (q, p0, p1) for every q in [q_lo, q_hi] whose exact anchor
    range p0..p1 (p0 = ceil(q lo), p1 = floor(q hi)) is nonempty, by q; the
    window needs 0 <= lo <= hi.

    With w = hi - lo and q* = ceil(1/w), a denominator q < q* has q w < 1
    and holds at most one anchor, so the Stern-Brocot lattice walk finds
    those at a cost that follows the anchors found.  A q >= q* has q w >= 1
    and always holds one, so its range is yielded directly.
    """
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    w = hi - lo
    split = min(-(-w.denominator // w.numerator), q_hi + 1) if w else q_hi + 1
    direct = ((q, -(-q * ln // ld), q * hn // hd) for q in range(max(q_lo, split), q_hi + 1))
    return chain(_lattice_scan_1d(lo, hi, q_lo, split - 1), direct)


def _stern_brocot_bracket(lo: Fraction, hi: Fraction) -> tuple[int, int, int, int]:
    """(a, b, c, d) with a/b <= lo <= hi < c/d, b c - a d = 1, and the
    mediant (a + c)/(b + d) in [lo, hi], for 0 <= lo <= hi.

    Descends the Stern-Brocot tree from 0/1, 1/0, taking each run of steps
    to the same side at once.  The one window no mediant reaches is
    lo = hi = 0; it returns the root bracket 0/1, 1/0.
    """
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    a, b, c, d = 0, 1, 1, 0
    while True:
        # mediants (a + j c)/(b + j d) rise to c/d > lo: skip those below lo
        j = max(1, -((a * ld - ln * b) // (c * ld - ln * d)))
        a, b = a + (j - 1) * c, b + (j - 1) * d
        # done once the mediant is <= hi too, or hi = a/b (then lo = hi = 0)
        if (a + c) * hd <= hn * (b + d) or hn * b == a * hd:
            return a, b, c, d
        # mediants (c + j a)/(d + j b) fall to a/b < hi: skip those above hi
        j = -((hn * d - c * hd) // (hn * b - a * hd))
        c, d = c + (j - 1) * a, d + (j - 1) * b


def _lattice_scan_1d(lo: Fraction, hi: Fraction, q_lo: int, q_hi: int):
    """_candidate_scan_1d for windows with 0 <= lo and (hi - lo) q_hi < 1.

    With the Stern-Brocot bracket a/b <= lo <= hi < c/d of the window, the
    map (m, n) -> (q, p) = m (b, a) + n (d, c) has determinant 1, so every
    anchor p/q in [lo, hi], reduced or not, is exactly one lattice point
    with m = c q - d p, n = b p - a q >= 0.  The window is the cone
    q D <= m <= q B, q A <= n <= q C, with A = lo b - a, B = c - lo d,
    C = hi b - a, D = c - hi d.  The cone is walked in q-windows of doubling
    width; each window iterates whichever of m and n takes fewer values and
    solves for the other, so the work follows the anchors found rather than
    the denominators passed.  A q holds at most one anchor here, so every
    triple has p0 = p1.
    """
    a, b, c, d = _stern_brocot_bracket(lo, hi)
    ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    # A, B over ld and C, D over hd, all >= 0; B, D > 0
    A, B, C, D = ln * b - a * ld, c * ld - ln * d, hn * b - a * hd, c * hd - hn * d
    # about 64 anchors in the first window: density w q plus the mediant's
    # multiples, exact because either term can underflow a double
    density = (hi - lo) * q_lo + Fraction(1, b + d)
    width = max(1, int(64 / density))
    q0 = q_lo
    while q0 <= q_hi:
        q1 = min(q0 + width - 1, q_hi)
        m_lo, m_hi = -(-q0 * D // hd), q1 * B // ld
        n_lo, n_hi = -(-q0 * A // ld), q1 * C // hd
        points = []
        if m_hi - m_lo <= n_hi - n_lo:
            for m in range(m_lo, m_hi + 1):
                n0 = max(-(-m * A // B), -(-(q0 - m * b) // d) if d else 0)
                n1 = m * C // D
                if d:
                    n1 = min(n1, (q1 - m * b) // d)
                elif not q0 <= m * b <= q1:
                    continue
                points.extend((m * b + n * d, m * a + n * c) for n in range(n0, n1 + 1))
        else:
            for n in range(n_lo, n_hi + 1):
                m0 = max(-(-n * D // C) if C else 0, -(-(q0 - n * d) // b))
                m1 = (q1 - n * d) // b
                if A:
                    m1 = min(m1, n * B // A)
                points.extend((m * b + n * d, m * a + n * c) for m in range(m0, m1 + 1))
        points.sort()
        for q, p in points:
            yield q, p, p
        q0 = q1 + 1
        width *= 2


def _pack_1d(
    lo: Fraction, hi: Fraction, gap: Fraction, q_lo: int, q_hi: int, max_cubes: int | None
) -> tuple[list[int], list[int], str]:
    """Greedy (q, p)-lexicographic anchors p/q in [lo, hi], pairwise > gap apart.

    With lo = a/b and gap = g/h, anchor p/q sits in slot
    s = floor((p/q - lo) / gap) = ((p b - a q) h) // (q b g).  A slot holds
    at most one accepted anchor, and a clash, |p q2 - p2 q| h <= g q q2,
    needs slots within one of each other.  Windows whose products fit int64
    and whose store fits _DENSE_SLOTS run dense, the rest one candidate at a
    time in Python integers.  Needs 0 <= lo.  Returns the accepted
    numerators, their denominators, and the store that ran.
    """
    a, b = lo.numerator, lo.denominator
    g, h = gap.numerator, gap.denominator
    ranges = _candidate_scan_1d(lo, hi, q_lo, q_hi)
    n_slots = math.floor((hi - lo) / gap) + 1
    p_max = hi.numerator * q_hi // hi.denominator
    # every int64 product of the dense path below is at most one of these
    # (0 <= a, 0 <= p <= p_max, q <= q_hi, p b - a q >= 0)
    magnitude = max((p_max * b + a * q_hi) * h, q_hi * b * g, p_max * q_hi * h, g * q_hi * q_hi)
    if _exact_dtype(magnitude) is np.int64 and n_slots <= _DENSE_SLOTS:
        return (*_pack_1d_dense(a, b, g, h, n_slots, ranges, max_cubes), "dense")
    slotted = (
        (p, q, (p * b - a * q) * h // (q * b * g)) for q, p0, p1 in ranges for p in range(p0, p1 + 1)
    )
    return (*_greedy_in_order(slotted, g, h, max_cubes)[:2], "sparse")


def _greedy_in_order(candidates, g, h, limit):
    """(ps, qs, slots) of the candidates (p, q, slot), in order, that clash
    with none taken before them; stops once limit are taken (None: never)."""
    store: dict[int, tuple[int, int]] = {}
    ps: list[int] = []
    qs: list[int] = []
    slots: list[int] = []
    for p, q, s in candidates:
        for key in (s - 1, s, s + 1):
            other = store.get(key)
            if other is not None and abs(p * other[1] - other[0] * q) * h <= g * q * other[1]:
                break
        else:
            store[s] = (p, q)
            ps.append(p)
            qs.append(q)
            slots.append(s)
            if len(ps) == limit:
                break
    return ps, qs, slots


def _denominator_runs(ranges):
    """ranges in runs of denominators: one, then until a run holds twice the
    candidates of the last, up to _DENSE_RUN.  Lazy, so an early stop reads
    at most about twice the denominators it needs."""
    run: list[tuple[int, int, int]] = []
    total, size = 0, 1
    for triple in ranges:
        run.append(triple)
        total += triple[2] - triple[1] + 1
        if total >= size:
            yield run
            run, total, size = [], 0, min(2 * total, _DENSE_RUN)
    if run:
        yield run


def _pack_1d_dense(a, b, g, h, n_slots, ranges, max_cubes):
    """_pack_1d in int64 numpy arithmetic, one run of denominators per step.

    A run is checked against the store of earlier runs at once.  Its
    survivors can still clash with each other (of one q when g q >= h, of
    different q, or unreduced twins such as 1/4 and 2/8), so
    _greedy_in_order takes them in (q, p) order, as the greedy does.
    """
    # slot s lives at index s + 1, so the neighbours s - 1 and s + 1 always
    # exist; q = 0 marks an empty slot
    slot_p = np.zeros(n_slots + 2, dtype=np.int64)
    slot_q = np.zeros(n_slots + 2, dtype=np.int64)
    accepted_p: list[int] = []
    accepted_q: list[int] = []
    for run in _denominator_runs(ranges):
        run_q, p0, p1 = np.array(run, dtype=np.int64).T
        counts = p1 - p0 + 1
        # every (q, p) of the run, in (q, p) order
        q = np.repeat(run_q, counts)
        p = np.arange(len(q), dtype=np.int64) + np.repeat(p0 - np.cumsum(counts) + counts, counts)
        slots = (p * b - a * q) * h // (q * b * g)
        # the own slot first: it rejects the most
        for k in (1, 0, 2):
            q2, p2 = slot_q[slots + k], slot_p[slots + k]
            free = (q2 == 0) | (np.abs(p * q2 - p2 * q) * h > g * q * q2)
            p, q, slots = p[free], q[free], slots[free]
        room = None if max_cubes is None else max_cubes - len(accepted_q)
        ps, qs, ss = _greedy_in_order(zip(p.tolist(), q.tolist(), slots.tolist()), g, h, room)
        taken = np.array(ss, dtype=np.int64) + 1
        slot_p[taken] = ps
        slot_q[taken] = qs
        accepted_p.extend(ps)
        accepted_q.extend(qs)
        if len(accepted_q) == max_cubes:
            break
    return accepted_p, accepted_q


def separated_cubes(
    c: Cube,
    n: int,
    tau,
    beta=4,
    max_cubes: int | None = None,
) -> CubeFamily:
    """Greedy separated family of balls B(p/q, 1/q^tau) inside the interval c.

    A tau that is not an integer >= 2 raises ValueError before any scan,
    and so does a cube whose shrunk window [lo + (beta/n)^2, hi - (beta/n)^2]
    starts below 0.  Anchors have q in [n/beta, n], sit at distance
    > (beta/n)^2 from the complement of c, and are pairwise further than
    3 (beta/n)^2 apart; the cubes themselves are then separated by at least
    n^-2.  Greedy order is lexicographic in (q, p).  With max_cubes set the
    scan stops early, producing a valid (not necessarily maximal) family.

    The scan (_pack_1d) is exact integer arithmetic over gap-wide slots,
    gap = 3 (beta/n)^2; where products fit int64 it checks a run of
    denominators per numpy step, O(candidates) work in all.  The result is
    the anchor-by-anchor greedy's list.  meta["store"] ("dense" or
    "sparse") records the store that ran.  The family holds the accepted
    anchors under the offset rule (-1, 1, t): member p/q + [-1/q^t, 1/q^t],
    with t = tau.
    """
    t = _tau_exponent(tau)
    if max_cubes is not None and max_cubes < 1:
        raise ValueError(f"max_cubes = {max_cubes} must be at least 1")
    lo_b, hi_b, margin, gap, q_lo = _packing_window(c, n, beta)
    ps, qs, store = _pack_1d(lo_b, hi_b, gap, q_lo, n, max_cubes)
    return CubeFamily(
        ps, qs, Fraction(-1), Fraction(1), t,
        meta={"n": n, "margin": margin, "anchor_gap": gap, "store": store},
    )


def _exact_dtype(magnitude: int):
    """np.int64 when magnitude, a bound on every integer a comparison forms,
    is below 2^63, else object (numpy arrays of Python ints)."""
    return np.int64 if magnitude < 2**63 else object


def audit_separated_family(c: Cube, family: CubeFamily, tau) -> None:
    """Exact structural audit of a separated_cubes family: radius exponent
    t = tau, containment with margin, pairwise anchor gap, and cube
    separation at least n^-2; raises AssertionError on any violation, and
    ValueError for a tau that is not an integer >= 2.

    Corners come from the anchors and the family's offset rule
    (_integer_corners), so the audit holds for any rule, not only balls.
    Adjacent anchors in sorted order witness the minimum, so the audit is
    linear.  Every comparison is an integer cross-multiplication, in int64
    where one bound admits it and on object arrays otherwise.
    """
    t = _tau_exponent(tau)
    if family.t != t:
        raise AssertionError(f"family radius exponent t = {family.t} is not tau = {tau}")
    if not family:
        return
    margin: Fraction = family.meta["margin"]
    gap: Fraction = family.meta["anchor_gap"]
    sep = Fraction(1, family.meta["n"] ** 2)
    lo_b, hi_b = c.lo_corner(0) + margin, c.hi_corner(0) - margin
    c_lo, c_hi = c.lo_corner(0), c.hi_corner(0)
    # every integer formed below is at most one of these; no member has a
    # larger corner or den than +-p_max/q_max
    p_max, q_max = max(max(family.p), -min(family.p)), max(family.q)
    x_lo, x_hi, x_den = _integer_corners(replace(family, p=[p_max, -p_max], q=[q_max, q_max]))
    corner_max, den_max = max(map(abs, [*x_lo, *x_hi])), x_den[0]
    shift = 2 * q_max.bit_length()
    dtype = _exact_dtype(max(
        p_max * max(lo_b.denominator, hi_b.denominator),
        max(abs(lo_b.numerator), abs(hi_b.numerator)) * q_max,
        corner_max * max(c_lo.denominator, c_hi.denominator),
        max(abs(c_lo.numerator), abs(c_hi.numerator)) * den_max,
        p_max << shift,
        2 * p_max * q_max * gap.denominator,
        gap.numerator * q_max * q_max,
        2 * corner_max * den_max,
        sep.numerator * den_max * den_max,
    ))
    p, q = np.array(family.p, dtype=dtype), np.array(family.q, dtype=dtype)
    lo, hi, den = _integer_corners(family, dtype)
    # lo_b <= p/q <= hi_b, and c_lo <= lo/den, hi/den <= c_hi (q, den > 0)
    bad_margin = (p * lo_b.denominator < lo_b.numerator * q) | (
        p * hi_b.denominator > hi_b.numerator * q
    )
    bad_leave = (lo * c_lo.denominator < c_lo.numerator * den) | (
        hi * c_hi.denominator > c_hi.numerator * den
    )
    bad = np.flatnonzero(bad_margin | bad_leave)
    if bad.size:
        i = bad[0]
        if bad_margin[i]:
            raise AssertionError(f"anchor {p[i]}/{q[i]} violates the margin")
        raise AssertionError(f"cube at {p[i]}/{q[i]} leaves the parent")

    # exact order: floor(p 2^s / q), with 2^s >= q_max^2, is strictly
    # monotone on distinct anchors and ties equal ones
    order = np.argsort((p << shift) // q, kind="stable")
    a, b = order[:-1], order[1:]
    # (anchor_b - anchor_a) q_a q_b > gap q_a q_b, times gap_d
    apart = (p[b] * q[a] - p[a] * q[b]) * gap.denominator > gap.numerator * q[a] * q[b]
    if not apart.all():
        i = int(np.flatnonzero(~apart)[0])
        raise AssertionError(f"anchors {p[a[i]]}/{q[a[i]]} and {p[b[i]]}/{q[b[i]]} too close")
    # lo_b/den_b - hi_a/den_a >= sep, times den_a den_b: an integer at least
    # sep den_a den_b, so at least its ceiling
    gaps = lo[b] * den[a] - hi[a] * den[b]
    if not (gaps >= -(-sep.numerator * den[a] * den[b] // sep.denominator)).all():
        raise AssertionError("cube separation below the guarantee")


def audit_separated_maximal(c: Cube, n: int, tau, beta, family: CubeFamily) -> None:
    """Rescan every admissible anchor; each must clash with an accepted one
    (an accepted anchor clashes with itself).  Only meaningful for families
    built without max_cubes; raises ValueError for the windows
    separated_cubes rejects.

    Accepted anchors are filed under the packer's exact slot
    floor((p/q - lo_b) / gap).  An anchor within gap of a candidate sits in
    the candidate's slot or one beside it, so the audit is linear in the
    candidates.
    """
    lo_b, hi_b, _, gap, q_lo = _packing_window(c, n, beta)
    a, b, g, h = lo_b.numerator, lo_b.denominator, gap.numerator, gap.denominator
    store: dict[int, list[tuple[int, int]]] = {}
    for p, q in zip(family.p, family.q):
        store.setdefault((p * b - a * q) * h // (q * b * g), []).append((p, q))
    for q, p0, p1 in _candidate_scan_1d(lo_b, hi_b, q_lo, n):
        for p in range(p0, p1 + 1):
            s = (p * b - a * q) * h // (q * b * g)
            clash = any(
                abs(p * q2 - p2 * q) * h <= g * q * q2
                for key in (s - 1, s, s + 1)
                for p2, q2 in store.get(key, ())
            )
            if not clash:
                raise AssertionError(f"family is not maximal: {p}/{q} could be added")


@dataclass(frozen=True)
class CantorPlan:
    """Per-level data of a nested construction: denominators n_k, child
    counts m_k >= 2, and separations eps_k (strictly decreasing); the depth
    `levels` is their common length."""

    d: int
    tau: float
    n: tuple[int, ...]
    m: tuple[int, ...]
    eps: tuple[float, ...]

    def __post_init__(self) -> None:
        if not len(self.n) == len(self.m) == len(self.eps):
            raise ValueError("per-level arrays must have one length, the level count")
        if any(mk < 2 for mk in self.m):
            raise ValueError(f"every level needs m_k >= 2, got {self.m}")
        if any(e2 >= e1 for e1, e2 in zip(self.eps, self.eps[1:])):
            raise ValueError("separations must be strictly decreasing")
        if any(e <= 0 for e in self.eps):
            raise ValueError("separations must be positive")

    @property
    def levels(self) -> int:
        return len(self.n)


# The nested build: root cube [1/8, 1/4], twin offsets (c1, c2) of the
# counterexample's offset window, and the per-level growth of n_k.  A fixed
# geometric ratio keeps every level computable at desk scale while child
# margins still fit inside parent cubes (ratio >> beta sqrt(2/(c2 - c1))).
ROOT_CUBE = Cube((1,), 8, Fraction(0), Fraction(1, 8))
_TWIN_C1, _TWIN_C2 = CounterexampleParams.c1, CounterexampleParams.c2
_NESTED_GROWTH = 4096


def build_nested_levels(
    d: int,
    tau,
    n1: int,
    levels: int,
    max_children: int = 64,
    retain: int = 4,
) -> tuple[list[CubeFamily], CantorPlan]:
    """Iterate the separated-cube step inside every retained parent cube.

    One-dimensional only: d >= 2 raises ValueError.  The construction starts
    from ROOT_CUBE = [1/8, 1/4], and level k runs the greedy packing (window
    ratio beta = 4) with denominators up to n_k = 4096^(k-1) n1 inside each
    (k-1)-level cube and replaces every ball by its offset twin
    p/q + [c1/q^tau, c2/q^tau], with (c1, c2) = (1/200, 1/100).  The
    plan records, per level, the child count m_k (min over expanded parents
    of children found, capped at max_children) and the separation eps_k (min
    over expanded parents of the exact within-parent child gap, never above
    eps_(k-1)); both are realized by the greedy runs.  Expansion to the next
    level proceeds under `retain` children per parent, spread across the
    parent, so the stored families stay small while the per-parent counts
    are certified wherever the construction actually descends.  Level k is
    the family of retained anchors under the offset rule (c1, c2, tau).
    Twins are ordered and their gaps measured in integers (_twin_order);
    only the retained parents of the next level become Cubes.
    """
    _require_1d(d)
    t = _tau_exponent(tau)
    parents: Sequence[Cube] | CubeFamily = [ROOT_CUBE]
    families: list[CubeFamily] = []
    ns: list[int] = []
    ms: list[int] = []
    eps: list[float] = []
    for k in range(1, levels + 1):
        n_k = n1 * _NESTED_GROWTH ** (k - 1)
        ps: list[int] = []
        qs: list[int] = []
        m_k = None
        gap_k = None
        for parent in parents:
            fam = separated_cubes(parent, n_k, tau, max_cubes=max_children)
            if len(fam) < 2:
                raise ValueError(
                    f"level {k}: parent at {parent.p}/{parent.q} yields {len(fam)} "
                    f"children; the growth condition on n_k is violated (m_k >= 2 fails)"
                )
            m_k = len(fam) if m_k is None else min(m_k, len(fam))
            order, found_gap = _twin_order(CubeFamily(fam.p, fam.q, _TWIN_C1, _TWIN_C2, t))
            gap_k = found_gap if gap_k is None else min(gap_k, found_gap)
            if len(order) > retain:
                idx = np.linspace(0, len(order) - 1, retain).round().astype(int)
                order = [order[i] for i in sorted(set(int(v) for v in idx))]
            ps.extend(fam.p[i] for i in order)
            qs.extend(fam.q[i] for i in order)
        e_k = min(gap_k, eps[-1] * (1 - 1e-12)) if eps else gap_k
        parents = CubeFamily(ps, qs, _TWIN_C1, _TWIN_C2, t)
        families.append(parents)
        ns.append(n_k)
        ms.append(int(m_k))
        eps.append(e_k)
    plan = CantorPlan(d, float(tau), tuple(ns), tuple(ms), tuple(eps))
    return families, plan


def _integer_corners(
    family: CubeFamily, dtype=object
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, den): every member's corners p/q + lo/q^t and p/q + hi/q^t
    as lo[i]/den[i] and hi[i]/den[i], numpy arrays of dtype.

    With lo = a1/b and hi = a2/b, the corners over den = b q^t are
    p b q^(t-1) + a1 and p b q^(t-1) + a2.
    """
    b = math.lcm(family.lo.denominator, family.hi.denominator)
    a1 = family.lo.numerator * (b // family.lo.denominator)
    a2 = family.hi.numerator * (b // family.hi.denominator)
    p, q = np.array(family.p, dtype=dtype), np.array(family.q, dtype=dtype)
    scale = b * q ** (family.t - 1)
    return p * scale + a1, p * scale + a2, scale * q


def _twin_order(family: CubeFamily) -> tuple[list[int], float]:
    """Indices of the members of a family of at least two, stably sorted by
    lo corner, and the smallest gap between neighbours in that order
    (negative if two overlap).

    The sort key floor(lo 2^s / den), with 2^s >= den_max^2, is strictly
    monotone on distinct corners and ties equal ones, so the order is the
    stable sort by the exact rational.  The minimum gap is picked by
    cross-multiplication and rounded once by int/int true division, which
    is correctly rounded, as float() of the exact Fraction is.
    """
    los, his, dens = (column.tolist() for column in _integer_corners(family))
    shift = 2 * max(dens).bit_length()
    order = sorted(range(len(dens)), key=lambda i: (los[i] << shift) // dens[i])
    # gap lo_j - hi_i over D_i D_j, for each neighbour pair i, j
    best_num, best_den = None, 1
    for i, j in zip(order, order[1:]):
        num, den = los[j] * dens[i] - his[i] * dens[j], dens[i] * dens[j]
        if best_num is None or num * best_den < best_num * den:
            best_num, best_den = num, den
    return order, best_num / best_den


def audit_nesting(parents: CubeFamily, children: CubeFamily) -> None:
    """Every child cube must sit inside exactly one parent cube.

    Corners are integer pairs computed from anchors and rule
    (_integer_corners), and each containment test is two
    cross-multiplications.
    """
    plo, phi, pden = (column.tolist() for column in _integer_corners(parents))
    clo, chi, cden = (column.tolist() for column in _integer_corners(children))
    for i in range(len(children)):
        owners = sum(
            plo[k] * cden[i] <= clo[i] * pden[k] and chi[i] * pden[k] <= phi[k] * cden[i]
            for k in range(len(parents))
        )
        if owners != 1:
            raise AssertionError(
                f"child {children.p[i]}/{children.q[i]} contained in {owners} parents"
            )


def cantor_lower_bound(plan: CantorPlan) -> float:
    """Finite-level mass-distribution dimension bound.

    min over k = 2..K of log(m_1 ... m_(k-1)) / (-log(eps_k m_k^(1/d))).
    """
    if plan.levels < 2:
        raise ValueError("need at least two construction levels")
    best = None
    log_prod = 0.0
    for k in range(2, plan.levels + 1):
        log_prod += math.log(plan.m[k - 2])
        inner = plan.eps[k - 1] * plan.m[k - 1] ** (1.0 / plan.d)
        if inner >= 1.0:
            raise ValueError(f"eps_{k} m_{k}^(1/d) = {inner:.3g} >= 1; log sign flips")
        val = log_prod / (-math.log(inner))
        best = val if best is None else min(best, val)
    return float(best)


def idealized_plan(d: int, lam: int, tau: float, levels: int) -> CantorPlan:
    """Self-similar reference plan: m_k = lam^(d+1), eps_k = lam^(-k tau)."""
    m = tuple(lam ** (d + 1) for _ in range(levels))
    eps = tuple(float(lam) ** (-k * tau) for k in range(1, levels + 1))
    n = tuple(lam**k for k in range(1, levels + 1))
    return CantorPlan(d, float(tau), n, m, eps)


def level_volume_lower_bound(params: CounterexampleParams, j: int) -> float:
    """Lower bound for the Lebesgue measure of the level-j cube family at alpha = d = 1.

    The number of distinct anchors p/q times the exact side (c2 - c1)
    lam^-j (cycle units).  Anchors are even p over q = 0 (mod 4), so
    p_b q_a - p_a q_b is a multiple of 8: distinct anchors differ by at
    least 8/(q_a q_b) >= 8 lam^-j, as q <= lam^(j/tau) = lam^(j/2), while the
    side is at most lam^-j.  Cubes at distinct anchors are therefore
    pairwise disjoint, and only repeated anchors (p/q and its unreduced
    multiples) overlap; they are counted once, by reduced (p, q), straight
    from the window: q in params.q_window(j), p in anchor_range(q).

    One-dimensional only: d >= 2 raises ValueError, as do an empty family
    and one of more than 2^20 cubes, before any anchor is enumerated.
    """
    _require_1d(params.d)
    if abs(params.alpha - params.d) > 1e-12:
        raise ValueError("volume lower bound applies to the case alpha = d only")
    count = level_cube_count(params, j)
    if not count:
        raise ValueError(f"level-{j} family is empty")
    if count > _LEVEL_CUBES:
        raise ValueError(f"level-{j} family holds {count} cubes, above the cap {_LEVEL_CUBES}")
    distinct = {
        (p // g, q // g)
        for q in params.q_window(j)
        for p in anchor_range(q)
        for g in (math.gcd(p, q),)
    }
    return len(distinct) * float((params.c2 - params.c1) / params.lam**j)
