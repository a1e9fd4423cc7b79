from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qcurv.algebra.intpoly import (
    count_roots_halfopen,
    derivative,
    divexact,
    evaluate,
    poly_gcd,
    squarefree_part,
    trim,
)
from qcurv.algebra.roots import RootBox, isolate_positive_roots, root_is_simple
from qcurv.bifurcation import DISPLAY_WIDTH, enumerate_instants, find_instants
from qcurv.catalog import HopfFamily, base_spectrum, hopf_data


def conv(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_with_roots(roots: list[Fraction], extra: list[int] | None = None) -> tuple[int, ...]:
    """Ascending integer coefficients of extra(t) * prod (q_i t - p_i)."""
    poly = list(extra) if extra is not None else [1]
    for r in roots:
        poly = conv(poly, [-r.numerator, r.denominator])
    return tuple(poly)


def assert_boxes_match(boxes: list[RootBox], roots: list[Fraction]) -> None:
    assert len(boxes) == len(roots)
    for box, r in zip(boxes, sorted(roots)):
        assert box.compare_to_rational(r) == 0


@given(
    st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=8),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5).filter(lambda d: d[-1]),
)
def test_divexact_undoes_multiplication(q: list[int], d: list[int]) -> None:
    # Leading coefficients other than +-1 make every quotient step a real division.
    assert divexact(trim(conv(q, d)), d) == trim(q)


@given(
    st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=7),
    st.integers(min_value=-(2**50), max_value=2**50),
    st.one_of(
        st.integers(min_value=0, max_value=60).map(lambda k: 2**k),
        st.integers(min_value=1, max_value=10**9),
    ),
    st.booleans(),
)
def test_value_is_the_scaled_rational_value(p: list[int], num: int, den: int, plant: bool) -> None:
    if plant:  # make num / den a root: the sign there must be 0
        p = conv(p or [1], [-num, den])
    x = Fraction(num, den)
    exact = sum((c * x**i for i, c in enumerate(p)), Fraction(0))
    # A positive multiple of p(num / den), so it has the same sign.
    value = evaluate(p, num, den)
    assert value == exact * den ** max(len(p) - 1, 0)
    if plant:
        assert value == 0


def test_isolates_distinct_integer_roots() -> None:
    p = poly_with_roots([Fraction(1), Fraction(2), Fraction(3)])
    assert_boxes_match(isolate_positive_roots(p), [Fraction(1), Fraction(2), Fraction(3)])


def test_ignores_nonpositive_roots() -> None:
    p = poly_with_roots([Fraction(-2), Fraction(0), Fraction(5, 2)])
    assert_boxes_match(isolate_positive_roots(p), [Fraction(5, 2)])


def test_handles_power_of_t_factor() -> None:
    # t**3 * (t - 1) * (t - 3): the t = 0 root is outside the open half line.
    p = poly_with_roots([Fraction(0)] * 3 + [Fraction(1), Fraction(3)])
    boxes = isolate_positive_roots(p)
    assert_boxes_match(boxes, [Fraction(1), Fraction(3)])
    for box in boxes:
        assert box.lo >= 0
        box.refine(Fraction(1, 10**6))


def test_repeated_roots_isolated_once() -> None:
    p = poly_with_roots([Fraction(1)] * 2 + [Fraction(2)])
    boxes = isolate_positive_roots(p)
    assert_boxes_match(boxes, [Fraction(1), Fraction(2)])
    assert not root_is_simple(boxes[0])
    assert root_is_simple(boxes[1])


def test_roots_of_a_squarefree_polynomial_are_simple_without_a_gcd(monkeypatch) -> None:
    calls = []

    def counting_gcd(p, q):
        calls.append((p, q))
        return poly_gcd(p, q)

    # 2 is hit exactly by the bisection, 1/3 and sqrt(2) are not.
    boxes = isolate_positive_roots(poly_with_roots([Fraction(1, 3), Fraction(2)], extra=[-2, 0, 1]))
    assert len(boxes) == 3 and any(box.is_exact for box in boxes)
    monkeypatch.setattr("qcurv.algebra.roots.poly_gcd", counting_gcd)
    assert all(root_is_simple(box) for box in boxes)
    assert calls == []


def test_double_root_beside_a_power_of_t_is_not_simple() -> None:
    # t * (t - 1)**2: stripping t leaves (t - 1)**2, whose radical t - 1 is
    # shorter than it, but the root t = 1 is still double.
    p = poly_with_roots([Fraction(0), Fraction(1), Fraction(1)])
    (box,) = isolate_positive_roots(p)
    assert not root_is_simple(box)
    assert not root_is_simple(RootBox(p, Fraction(1, 2), Fraction(3, 2)))
    # t * (t - 1) is squarefree: its positive root is simple.
    assert root_is_simple(isolate_positive_roots(poly_with_roots([Fraction(0), Fraction(1)]))[0])


def test_no_positive_roots() -> None:
    assert isolate_positive_roots((1, 0, 1)) == []
    assert isolate_positive_roots((2,)) == []


def test_close_roots_are_separated() -> None:
    a, b = Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**9)
    boxes = isolate_positive_roots(poly_with_roots([a, b]))
    assert_boxes_match(boxes, [a, b])
    assert boxes[0].compare(boxes[1]) == -1


def test_refinement_keeps_bracketing_to_tiny_width() -> None:
    # Positive root of t**2 - 2 is irrational, so the box never collapses.
    box = isolate_positive_roots((-2, 0, 1))[0]
    tight = box.refine(Fraction(1, 10**20))
    assert tight.width <= Fraction(1, 10**20) and not tight.is_exact
    assert tight.lo ** 2 < 2 < tight.hi ** 2
    assert box.compare_to_rational(Fraction(2)) == -1
    assert box.compare_to_rational(Fraction(1)) == 1


def test_rational_root_hit_by_bisection_becomes_exact() -> None:
    # Root t = 1 lies on the dyadic refinement grid and is detected exactly.
    box = isolate_positive_roots(poly_with_roots([Fraction(1)], extra=[1, 1]))[0]
    tight = box.refine(Fraction(1, 2**10))
    assert tight.is_exact and tight.lo == 1
    assert tight.compare_to_rational(Fraction(1)) == 0


def test_exact_box_comparisons() -> None:
    p = poly_with_roots([Fraction(1), Fraction(2)])
    exact = RootBox(p, Fraction(1), Fraction(1))
    other = isolate_positive_roots(p)[1]
    assert exact.compare(other) == -1
    assert other.compare(exact) == 1
    assert exact.compare(exact) == 0
    assert exact.is_exact and exact.width == 0


def test_compare_same_root_across_different_polynomials() -> None:
    # sqrt(2) as a root of two unrelated integer polynomials compares equal.
    a = isolate_positive_roots((-2, 0, 1))[0]
    b = isolate_positive_roots(poly_with_roots([Fraction(3)], extra=[-2, 0, 1]))[0]
    assert a.compare(b) == 0 and b.compare(a) == 0


def test_vanishes_at_root_detects_shared_factors() -> None:
    box = isolate_positive_roots((-2, 0, 1))[0]
    assert box.vanishes_at_root(poly_with_roots([Fraction(5)], extra=[-2, 0, 1]))
    assert not box.vanishes_at_root(poly_with_roots([Fraction(1), Fraction(2)]))
    assert not box.vanishes_at_root(derivative((-2, 0, 1)))


def test_invalid_box_is_rejected() -> None:
    with pytest.raises(ValueError):
        RootBox((-2, 0, 1), Fraction(2), Fraction(3))
    with pytest.raises(ValueError):
        RootBox((-2, 0, 1), Fraction(2), Fraction(2))


def test_box_json_shape() -> None:
    box = RootBox((-2, 0, 1), Fraction(1), Fraction(3, 2))
    assert box.to_json() == ["1", "3/2"]


root_lists = st.lists(
    st.fractions(min_value=Fraction(1, 8), max_value=12, max_denominator=16),
    min_size=1,
    max_size=4,
    unique=True,
)


@settings(max_examples=60, deadline=None)
@given(root_lists, st.integers(min_value=0, max_value=2))
def test_isolation_recovers_prescribed_roots(roots: list[Fraction], zeros: int) -> None:
    p = poly_with_roots(sorted(roots) + [Fraction(0)] * zeros, extra=[1, 0, 2])
    boxes = isolate_positive_roots(p)
    assert_boxes_match(boxes, roots)
    count = count_roots_halfopen(p, Fraction(0), max(roots) + 1)
    assert count == len(roots)
    for box, r in zip(boxes, sorted(roots)):
        tight = box.refine(Fraction(1, 10**12))
        assert tight.lo <= r <= tight.hi


# Laws of RootBox.compare and refine on boxes drawn from isolation.  Roots
# are planted: rationals (some on the dyadic bisection grid, some not, all
# drawn from a small pool so that polynomials share them) and sqrt(k) for
# squarefree k.  Every root is positive, so roots compare like their
# squares, which are rational; that is the exact oracle below.
POOL = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 3), Fraction(5, 2)]
planted = st.tuples(
    st.lists(
        st.one_of(
            st.sampled_from(POOL),
            st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=8),
        ),
        max_size=3,
        unique=True,
    ),
    st.lists(st.sampled_from([2, 3, 5, 7]), max_size=2, unique=True),
    st.booleans(),
).filter(lambda drawn: drawn[0] or drawn[1])


def planted_boxes(drawn: tuple[list[Fraction], list[int], bool]) -> list[tuple[RootBox, Fraction]]:
    """Isolated boxes of the planted polynomial, each with its root squared."""
    rationals, radicands, double = drawn
    extra = [1]
    for k in radicands:
        extra = conv(extra, [-k, 0, 1])
    # Optionally repeat the first planted root, so non-simple roots occur.
    poly = poly_with_roots(rationals + rationals[:1] * double, extra=extra)
    squares = sorted({r * r for r in rationals} | {Fraction(k) for k in radicands})
    boxes = isolate_positive_roots(poly)
    assert len(boxes) == len(squares)
    return list(zip(boxes, squares))


def sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@settings(max_examples=40, deadline=None)
@given(st.lists(planted, min_size=2, max_size=3))
def test_compare_is_a_total_order_on_isolated_roots(drawn: list) -> None:
    items = [item for one in drawn for item in planted_boxes(one)]
    order = [[a.compare(b) for b, _ in items] for a, _ in items]
    for i, (_, sa) in enumerate(items):
        for j, (_, sb) in enumerate(items):
            assert order[i][j] == -order[j][i]  # antisymmetry
            assert (order[i][j] == 0) == (sa == sb)  # equal exactly on a shared root
            assert order[i][j] == sign(sa - sb)
    n = len(items)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if order[i][j] <= 0 and order[j][k] <= 0:
                    assert order[i][k] <= 0  # transitivity


@settings(max_examples=40, deadline=None)
@given(st.lists(planted, min_size=1, max_size=2))
def test_compare_agrees_with_compare_to_rational_on_exact_boxes(drawn: list) -> None:
    items = [item for one in drawn for item in planted_boxes(one)]
    points = {r for rationals, _, _ in drawn for r in rationals}
    exact = [RootBox(poly_with_roots([r]), r, r) for r in sorted(points)]
    exact += [box for box, _ in items if box.is_exact]
    for box, square in items:
        for e in exact:
            r = e.lo
            assert box.compare(e) == box.compare_to_rational(r) == sign(square - r * r)
            assert e.compare(box) == -box.compare_to_rational(r)


@settings(max_examples=40, deadline=None)
@given(planted, st.fractions(min_value=Fraction(1, 10**12), max_value=4).filter(lambda w: w > 0))
def test_refine_stays_inside_and_reaches_the_width(drawn, width: Fraction) -> None:
    for box, _ in planted_boxes(drawn):
        tight = box.refine(width)
        assert box.lo <= tight.lo <= tight.hi <= box.hi
        assert tight.width <= width
        assert tight.poly == box.poly
        assert tight.compare(box) == 0 and box.compare(tight) == 0


@settings(max_examples=40, deadline=None)
@given(planted, st.integers(min_value=3, max_value=60))
def test_staged_refinement_lands_on_the_same_box(drawn, halvings: int) -> None:
    for box, _ in planted_boxes(drawn):
        if box.is_exact:
            continue
        width = box.width / 2**halvings  # below width / 4
        direct = box.refine(width)
        staged = box.refine(box.width / 4).refine(width)
        assert (staged.lo, staged.hi) == (direct.lo, direct.hi)


def fresh(box: RootBox) -> RootBox:
    """The same interval and polynomial, built by the public constructor."""
    return RootBox(box.poly, box.lo, box.hi)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(planted, min_size=2, max_size=3),
    st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), max_size=30),
)
def test_compare_does_not_depend_on_earlier_comparisons(drawn: list, warm_up: list) -> None:
    items = [item for one in drawn for item in planted_boxes(one)]
    intervals = [(box.lo, box.hi) for box, _ in items]
    n = len(items)
    for i, j in warm_up:  # comparisons in an order hypothesis picks
        items[i % n][0].compare(items[j % n][0])
    for a, sa in items:
        for b, sb in items:
            assert a.compare(b) == fresh(a).compare(fresh(b)) == sign(sa - sb)
    assert [(box.lo, box.hi) for box, _ in items] == intervals


def test_disjoint_boxes_are_ordered_without_a_gcd(monkeypatch) -> None:
    calls = []

    def counting_gcd(p, q):
        calls.append((p, q))
        return poly_gcd(p, q)

    monkeypatch.setattr("qcurv.algebra.roots.poly_gcd", counting_gcd)
    sqrt2 = isolate_positive_roots((-2, 0, 1))[0].refine(Fraction(1, 4))
    sqrt7 = isolate_positive_roots((-7, 0, 1))[0].refine(Fraction(1, 4))
    assert not sqrt2.is_exact and not sqrt7.is_exact and sqrt2.hi <= sqrt7.lo
    assert sqrt2.compare(sqrt7) == -1 and sqrt7.compare(sqrt2) == 1
    assert calls == []
    # Overlapping boxes still run the shared-root test.
    other = isolate_positive_roots(poly_with_roots([Fraction(3)], extra=[-2, 0, 1]))[0]
    assert sqrt2.compare(other) == 0
    assert len(calls) == 1


def bisected(box: RootBox, width: Fraction) -> tuple[Fraction, Fraction]:
    """Plain bisection of the box to at most width, over Q: the oracle for refine."""

    def sign_at(x: Fraction) -> int:
        return sign(sum((c * x**i for i, c in enumerate(squarefree_part(box.poly))), Fraction(0)))

    lo, hi = box.lo, box.hi
    sign_lo = sign_at(lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        s = sign_at(mid)
        if not s:
            return mid, mid
        lo, hi = (mid, hi) if s == sign_lo else (lo, mid)
    return lo, hi


widths = st.one_of(
    st.integers(min_value=1, max_value=99).map(lambda k: Fraction(1, 2**k)),
    st.fractions(min_value=Fraction(1, 10**30), max_value=Fraction(1, 2)).filter(lambda w: w > 0),
)


@settings(max_examples=40, deadline=None)
@given(planted, widths, widths, st.integers(min_value=1, max_value=12))
def test_refine_is_plain_bisection_from_any_start(drawn, width, earlier, halvings: int) -> None:
    for isolated, _ in planted_boxes(drawn):
        if isolated.is_exact:
            assert isolated.refine(width) is isolated
            continue
        # The isolating box is an ancestor of the partly bisected one; a box
        # landed at another width is what an earlier refinement returned.
        partly = isolated.refine(isolated.width / 2**halvings)
        for start in (isolated, partly, isolated.refine(earlier)):
            tight = start.refine(width)
            assert (tight.lo, tight.hi) == bisected(start, width)
            if width < start.width:
                assert (tight.lo, tight.hi) == bisected(isolated, width)
            assert tight.refine(width) is tight


def test_refine_of_a_box_that_is_not_a_dyadic_cell_is_plain_bisection() -> None:
    box = RootBox((-2, 0, 1), Fraction(4, 3), Fraction(3, 2))
    for width in (Fraction(1, 7), Fraction(1, 10**12), Fraction(1, 3**70)):
        tight = box.refine(width)
        assert (tight.lo, tight.hi) == bisected(box, width)
    # The bisection point 1 of (0, 2) is the root of t - 1.
    assert bisected(RootBox((-1, 1), 0, 2), Fraction(1, 5)) == (1, 1)
    assert RootBox((-1, 1), 0, 2).refine(Fraction(1, 5)).to_json() == ["1", "1"]


@pytest.mark.parametrize(
    "fam, lam, instant",
    [(HopfFamily("i", 7), 576, 144), (HopfFamily("i", 10), 44, 286)],
    ids=str,
)
def test_landing_hits_the_exact_rational_instants(fam: HopfFamily, lam: int, instant: int) -> None:
    reports = find_instants(hopf_data(fam), lam)
    (report,) = [r for r in reports if r.root.compare_to_rational(instant) == 0]
    for width in (Fraction(1, 2**10), DISPLAY_WIDTH, Fraction(1, 10**30)):
        tight = report.root.refine(width)
        assert tight.is_exact and tight.lo == instant
        assert (tight.lo, tight.hi) == bisected(report.root, width)


def test_landing_far_from_zero_starts_from_a_float_in_range() -> None:
    # The root sqrt(2**1100 + 1) is just above 2**550.  The constant
    # coefficient is beyond the float range, so an unscaled float start
    # would overflow.
    (box,) = isolate_positive_roots((-(2**1100 + 1), 0, 1))
    tight = box.refine(Fraction(1, 10**12))
    assert (tight.lo, tight.hi) == (2**550, 2**550 + Fraction(1, 2**40))
    assert (tight.lo, tight.hi) == bisected(box, Fraction(1, 10**12))


SWEPT = [HopfFamily("i", 10), HopfFamily("ii", 3), HopfFamily("iii", 9), HopfFamily("iv")]


@pytest.mark.parametrize("fam", SWEPT, ids=str)
def test_refine_after_the_instant_sweep_matches_a_fresh_box(fam: HopfFamily) -> None:
    # The sweep returns each root landed at the display width: the box that
    # bisection of the fresh isolating box gives, which refines on the same way.
    data, spectrum = hopf_data(fam), base_spectrum(fam)
    reports = enumerate_instants(data, spectrum, max_eigs=40)
    for k in range(1, 41):
        lam = spectrum.eigenvalue(k)
        landed = [r.root for r in reports if r.lam == lam]
        isolated = [r.root for r in find_instants(data, lam)]
        assert len(landed) == len(isolated)
        for box, start in zip(landed, isolated):
            assert (box.lo, box.hi) == bisected(start, DISPLAY_WIDTH)
            assert box.refine(DISPLAY_WIDTH) is box  # the display refines nothing again
            assert_refines_like_a_fresh_box(box, start)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(planted, min_size=2, max_size=3),
    st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)), min_size=1, max_size=30),
)
def test_refine_after_comparisons_matches_a_fresh_box(drawn: list, warm_up: list) -> None:
    items = [box for one in drawn for box, _ in planted_boxes(one)]
    intervals = [(box.lo, box.hi) for box in items]
    n = len(items)
    for i, j in warm_up:  # comparisons in an order hypothesis picks
        items[i % n].compare(items[j % n])
    assert [(box.lo, box.hi) for box in items] == intervals
    for box in items:
        assert_refines_like_a_fresh_box(box, fresh(box))


def assert_refines_like_a_fresh_box(box: RootBox, start: RootBox) -> None:
    """box refines as plain bisection of start does, start a box it came from (or a copy)."""
    # Targets above the box's width, on it and below it.
    for scale in (4, 2, 1, Fraction(3, 4), Fraction(1, 2**20)):
        width = box.width * scale or DISPLAY_WIDTH * scale
        tight = box.refine(width)
        expected = bisected(start, width) if width < box.width else (box.lo, box.hi)
        assert (tight.lo, tight.hi) == expected
