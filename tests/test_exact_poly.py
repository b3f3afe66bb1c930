"""Exact arithmetic kernel: Gaussian rationals and twisted polynomials."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc22.exact_poly import (GaussRat, NotDivisible, TwistedPoly, exact_div, signed_sum,
                              wronskian)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
gauss = st.builds(GaussRat, rationals, rationals)
nonzero_gauss = gauss.filter(bool)
# Half-twists with larger heights and denominators that share factors.
wide_twists = st.builds(
    GaussRat,
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
).filter(bool)


def _poly(coeffs, twist=1) -> TwistedPoly:
    return TwistedPoly.from_coeffs([GaussRat.coerce(c) for c in coeffs],
                                   twist=GaussRat.coerce(twist))


TWISTS = (GaussRat(1), GaussRat(0, 1), GaussRat(2, 1), GaussRat(1, -1))

small_polys = st.builds(
    _poly,
    st.lists(rationals, min_size=1, max_size=3),
    st.sampled_from(TWISTS),
)


def _top_poly(low, top, twist) -> TwistedPoly:
    """Single-twist polynomial of degree len(low) (top is nonzero)."""
    return _poly(list(low) + [top], twist=twist)


single_twist = st.builds(_top_poly, st.lists(gauss, max_size=2),
                         nonzero_gauss, st.sampled_from(TWISTS))


@st.composite
def two_twist(draw) -> TwistedPoly:
    """A divisor on two distinct twists, which exact_div refuses."""
    s, t = draw(st.sampled_from(list(itertools.permutations(TWISTS, 2))))
    low = st.lists(gauss, max_size=2)
    return (draw(st.builds(_top_poly, low, nonzero_gauss, st.just(s)))
            + draw(st.builds(_top_poly, low, nonzero_gauss, st.just(t))))


def _assert_canonical(p: TwistedPoly) -> None:
    keys = [s.sort_key() for s in p.twists()]
    assert keys == sorted(set(keys))
    for (a, b, e), d, re, im in p._t:
        assert e > 0 and gcd(a, b, e) == 1
        assert d > 0 and len(re) == len(im)
        assert re[-1] or im[-1]
        assert gcd(d, *re, *im) == 1


@given(gauss, gauss, gauss)
def test_gauss_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + GaussRat.ZERO == a
    assert a * GaussRat.ONE == a


@given(nonzero_gauss)
def test_gauss_inverse(a):
    assert a * a.inverse() == GaussRat.ONE
    assert GaussRat.ONE / a == a.inverse()


@given(gauss)
def test_gauss_conjugation_and_norm(a):
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0
    assert (a * a.conjugate()).re == a.norm2()


def test_gauss_coerce_forms():
    assert GaussRat.coerce(3) == GaussRat(3)
    assert GaussRat.coerce(Fraction(1, 2)) == GaussRat(Fraction(1, 2))
    assert GaussRat.coerce("2/7") == GaussRat(Fraction(2, 7))
    assert GaussRat.coerce((1, 2)) == GaussRat(1, 2)
    assert GaussRat.coerce(GaussRat(0, 5)) == GaussRat(0, 5)


def test_real_gaussrat_hashes_like_its_fraction():
    assert GaussRat(3) == 3 and hash(GaussRat(3)) == hash(3)
    assert hash(GaussRat(Fraction(-5, 7))) == hash(Fraction(-5, 7))
    assert len({GaussRat(3), 3}) == 1
    assert len({GaussRat(Fraction(1, 2)), Fraction(1, 2), GaussRat(0, 1)}) == 2


@given(gauss)
def test_gauss_hash_agrees_with_eq(a):
    assert hash(a) == hash(GaussRat(a.re, a.im))
    if not a.im:
        assert hash(a) == hash(a.re)


def test_gauss_constants_and_powers():
    assert GaussRat.I * GaussRat.I == -GaussRat.ONE
    assert GaussRat(1, 1) ** 4 == GaussRat(-4)
    assert GaussRat(2) ** -2 == GaussRat(Fraction(1, 4))


@given(gauss)
def test_gauss_json_round_trip(a):
    data = a.as_json()
    assert all(isinstance(part, str) for part in data)
    assert GaussRat.from_json(data) == a


def test_gauss_from_json_takes_integers_only():
    assert GaussRat.from_json([1, "-2", 0, "1"]) == GaussRat(Fraction(-1, 2))
    for bad in ([1.5, 1, 0, 1], [True, 1, 0, 1], ["1.0", "1", "0", "1"],
                ["+1", "1", "0", "1"], ["1_0", "1", "0", "1"], ["\u0661", "1", "0", "1"]):
        with pytest.raises(ValueError, match="decimal-integer"):
            GaussRat.from_json(bad)


def test_gauss_sort_key_orders():
    vals = [GaussRat(1), GaussRat(0, 1), GaussRat(-2), GaussRat(1, -1)]
    ordered = sorted(vals, key=lambda v: v.sort_key())
    assert sorted(ordered, key=lambda v: v.sort_key()) == ordered
    assert len(set(v.sort_key() for v in vals)) == len(vals)


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60)
def test_poly_ring_laws(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f * (g * h) == (f * g) * h
    assert f + TwistedPoly.zero() == f
    assert f * TwistedPoly.one() == f


@given(small_polys, st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
@settings(max_examples=60)
def test_shift_is_a_ring_homomorphism(f, m, n):
    assert f.shift(m).shift(n) == f.shift(m + n)
    g = f * f + f
    assert g.shift(m) == f.shift(m) * f.shift(m) + f.shift(m)


@given(small_polys, st.integers(min_value=-3, max_value=3))
@settings(max_examples=60)
def test_shift_memo_matches_a_fresh_copy(f, k):
    before = TwistedPoly(f.terms)
    first = f.shift(k)
    assert f.shift(k) is first
    assert first == TwistedPoly(f.terms).shift(k)
    # A memo entry never changes the element it hangs on.
    assert f == before and hash(f) == hash(before)
    assert f.terms == before.terms


@given(small_polys, st.integers(min_value=-3, max_value=3))
@settings(max_examples=60)
def test_negation_commutes_with_shift(f, k):
    neg = -f
    assert neg.shift(k) == -(f.shift(k))
    assert neg.shift(k) == (-TwistedPoly(f.terms)).shift(k)
    assert -neg == f
    assert (-1) * f == neg and (-neg).shift(k) == f.shift(k)
    _assert_canonical(neg.shift(k))


@given(small_polys, small_polys, st.integers(min_value=2, max_value=12))
@settings(max_examples=60)
def test_canonical_form_ignores_the_denominator(f, g, k):
    h = f * g + f.shift(1)
    sixfold = TwistedPoly((s, [6 * c for c in cs]) for s, cs in h.terms)
    for same in ((h / k) * k, (h * k) / k, TwistedPoly(h.terms), sixfold / 6):
        assert same == h
        assert hash(same) == hash(h)
        _assert_canonical(same)
    _assert_canonical(h)


@given(wide_twists, wide_twists)
def test_twist_products_and_quotients_are_exact(s, t):
    f = TwistedPoly.from_coeffs([1], s)
    g = TwistedPoly.from_coeffs([1], t)
    assert (f * g).twists() == (s * t,)
    assert (f * g).terms[0][1] == (GaussRat.ONE,)
    q = exact_div(f, g)
    assert q.twists() == (s / t,) and q.terms[0][1] == (GaussRat.ONE,)
    _assert_canonical(f * g)
    _assert_canonical(q)


@given(wide_twists, nonzero_gauss, st.integers(min_value=-3, max_value=3))
def test_shift_multiplies_by_the_twist_power(s, c, n):
    shifted = TwistedPoly.from_coeffs([c], s).shift(n)
    assert shifted == TwistedPoly.from_coeffs([s ** n * c], s)
    assert shifted.twists() == (s,)
    _assert_canonical(shifted)


@given(wide_twists, st.integers(min_value=2, max_value=30))
def test_one_twist_written_two_ways_is_one_element(s, k):
    f = TwistedPoly.from_coeffs([1, 2], s)
    for same in (GaussRat(s.re * k, s.im * k) / k, (s.re, s.im),
                 GaussRat(str(s.re), str(s.im))):
        g = TwistedPoly.from_coeffs([1, 2], same)
        assert g == f and hash(g) == hash(f) and g._t == f._t


def test_equal_twists_in_other_forms_hash_alike():
    for one, other in ((GaussRat(2, 2) / 2, GaussRat(1, 1)),
                       (Fraction(6, 4), Fraction(3, 2)),
                       ("6/4", GaussRat(Fraction(3, 2))),
                       (GaussRat(-3, 0), -3)):
        f = TwistedPoly.from_coeffs([1, 1], one)
        g = TwistedPoly.from_coeffs([1, 1], other)
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1


def test_term_order_is_sort_key_order():
    twists = [GaussRat(1), GaussRat(0, 1), GaussRat(2, 1), GaussRat(1, -1), GaussRat(-2)]
    expected = [GaussRat(-2), GaussRat(0, 1), GaussRat(1, -1), GaussRat(1), GaussRat(2, 1)]
    assert expected == sorted(twists, key=GaussRat.sort_key)
    for order in itertools.permutations(twists):
        f = TwistedPoly((s, (1, k)) for k, s in enumerate(order))
        assert list(f.twists()) == expected
        assert [term["s"] for term in f.as_json()["terms"]] == [s.as_json() for s in expected]
        # Products and shifts sort their buckets the same way.
        assert list((f * TwistedPoly.one()).twists()) == expected
        assert list(f.shift(1).twists()) == expected


@given(st.lists(wide_twists, min_size=2, max_size=6, unique_by=GaussRat.sort_key),
       st.lists(st.integers(min_value=0, max_value=2), min_size=6, max_size=6))
@settings(max_examples=60)
def test_term_order_holds_across_denominators(twists, degrees):
    f = TwistedPoly((s, [1] * (deg + 1)) for s, deg in zip(twists, degrees))
    keys = [s.sort_key() for s in f.twists()]
    assert keys == sorted(s.sort_key() for s in twists)


def test_canonical_form_reduces_by_the_gcd():
    f = _poly([Fraction(1, 2), GaussRat(0, Fraction(1, 3)), 1])
    thirds = _poly([Fraction(1, 6), GaussRat(0, Fraction(1, 9)), Fraction(1, 3)])
    assert thirds * 3 == f and hash(thirds * 3) == hash(f)
    assert (f / 3) * 3 == f
    assert f._t == (((1, 0, 1), 6, (3, 0, 6), (0, 2, 0)),)


@given(small_polys, small_polys)
@settings(max_examples=60)
def test_wronskian_antisymmetry(f, g):
    assert wronskian(f, g) == -wronskian(g, f)
    assert wronskian(f, f).is_zero


@given(small_polys, small_polys, small_polys)
@settings(max_examples=40)
def test_wronskian_bilinear(f, g, h):
    assert wronskian(f + g, h) == wronskian(f, h) + wronskian(g, h)


def test_wronskian_of_twisted_constants():
    one = TwistedPoly.one()
    tw = _poly([1], twist=GaussRat(2, 1))
    w = wronskian(one, tw)
    assert not w.is_zero
    assert w.degree() == 0
    # Orientation: W(f, g) = f^+ g^- - f^- g^+, so W(u, 1) = +i.
    u = _poly([0, 1])
    assert wronskian(u, one) == TwistedPoly.constant(GaussRat(0, 1))
    # The Casoratian of 1, u, ..., u^(k-1) is the Vandermonde product of
    # its shift points u + i*(k+1-2j)/2: 2i for k = 3, -12 for k = 4.
    powers = [_poly([0] * n + [1]) for n in range(4)]
    assert wronskian(*powers[:3]) == TwistedPoly.constant(GaussRat(0, 2))
    assert wronskian(*powers) == TwistedPoly.constant(-12)


@given(small_polys, small_polys)
@settings(max_examples=40)
def test_wronskian_of_one_and_two_functions(f, g):
    assert wronskian(f) is f
    assert wronskian(f, g) == f.shift(1) * g.shift(-1) - f.shift(-1) * g.shift(1)
    with pytest.raises(ValueError):
        wronskian()


@st.composite
def casoratian_rows(draw):
    """k = 3 or 4 functions and two distinct row indices."""
    k = draw(st.sampled_from((3, 4)))
    fs = draw(st.lists(small_polys, min_size=k, max_size=k))
    i, j = draw(st.sampled_from(list(itertools.combinations(range(k), 2))))
    return fs, i, j


@given(casoratian_rows())
@settings(max_examples=30)
def test_casoratian_is_alternating(rows):
    fs, i, j = rows
    swapped = list(fs)
    swapped[i], swapped[j] = fs[j], fs[i]
    assert wronskian(*swapped) == -wronskian(*fs)
    repeated = list(fs)
    repeated[j] = fs[i]
    assert wronskian(*repeated).is_zero


# Factors for the signed-sum kernel: one coefficient, longer, and on
# several twists.
one_coeff = st.builds(_top_poly, st.just(()), nonzero_gauss, st.sampled_from(TWISTS))
longer = single_twist.filter(lambda f: f.degree() >= 1)
factors = st.one_of(small_polys, one_coeff, longer, two_twist())
signed_terms = st.lists(st.tuples(st.sampled_from((1, -1)), factors, factors), max_size=4)


def _fold(terms) -> TwistedPoly:
    """The same sum with `*`, `+` and `-`, one partial sum at a time."""
    out = TwistedPoly.zero()
    for sign, f, g in terms:
        out = out + f * g if sign > 0 else out - f * g
    return out


def _naive(terms) -> TwistedPoly:
    """The same sum from GaussRat coefficient convolutions, through the
    constructor and without the kernel."""
    out = []
    for sign, f, g in terms:
        for s, p in f.terms:
            for t, r in g.terms:
                prod = [GaussRat.ZERO] * (len(p) + len(r) - 1)
                for j, x in enumerate(p):
                    for k, y in enumerate(r):
                        prod[j + k] = prod[j + k] + sign * x * y
                out.append((s * t, prod))
    return TwistedPoly(out)


def _assert_kernel(terms) -> TwistedPoly:
    out = signed_sum(terms)
    assert out == _fold(terms) == _naive(terms)
    assert out == TwistedPoly(out.terms)
    _assert_canonical(out)
    return out


@given(signed_terms)
@settings(max_examples=40)
def test_signed_sum_matches_the_fold(terms):
    _assert_kernel(terms)


def test_signed_sum_of_nothing_is_zero():
    assert _assert_kernel(()) == TwistedPoly.zero()
    assert signed_sum(iter(())).is_zero


@given(signed_terms.filter(bool))
@settings(max_examples=25)
def test_signed_sum_cancels_to_zero(terms):
    # Each term again with the factors swapped and the sign flipped.
    assert _assert_kernel(terms + [(-sign, g, f) for sign, f, g in terms]).is_zero


@given(factors, factors)
@settings(max_examples=40)
def test_signed_sum_sign(f, g):
    assert _assert_kernel([(-1, f, g)]) == -(f * g)
    assert _assert_kernel([(1, f, g)]) == f * g


@given(two_twist(), two_twist(), factors)
@settings(max_examples=25)
def test_signed_sum_of_multi_twist_factors(f, g, h):
    _assert_kernel([(1, f, g), (-1, g, h), (1, h, f)])


@given(one_coeff, one_coeff, longer, longer)
@settings(max_examples=25)
def test_signed_sum_runs_both_product_branches(c, e, p, r):
    # c * e multiplies inline; the products with p or r convolve.
    _assert_kernel([(1, c, e), (-1, c, p), (1, p, r), (-1, r, e)])


def test_exact_div_round_trip():
    f = _poly([1, 2, 1])
    g = _poly([1, 1])
    assert exact_div(f, g) == g
    with pytest.raises(NotDivisible):
        exact_div(_poly([1, 0, 1]), _poly([1, 1]))


@given(small_polys, single_twist)
@settings(max_examples=60)
def test_exact_div_inverts_multiplication(f, g):
    q = exact_div(f * g, g)
    assert q == f
    _assert_canonical(q)


@given(small_polys, single_twist.filter(lambda g: g.degree() >= 1))
@settings(max_examples=60)
def test_exact_div_rejects_a_remainder(f, g):
    with pytest.raises(NotDivisible):
        exact_div(f * g + 1, g)


@given(small_polys, two_twist())
@settings(max_examples=30)
def test_exact_div_refuses_a_divisor_with_two_twists(f, g):
    assert len(g.twists()) == 2
    with pytest.raises(ValueError):
        exact_div(f * g, g)


def test_exact_div_twisted():
    f = _poly([2, 1], twist=GaussRat(3, 1))
    g = _poly([2, 1])
    q = exact_div(f * g, g)
    assert q == f


def test_poly_accessors():
    f = _poly([Fraction(1, 2), 0, 1], twist=GaussRat(0, 1))
    assert f.degree() == 2
    assert f.twists() == (GaussRat(0, 1),)
    assert not f.is_zero
    assert TwistedPoly.zero().is_zero
    mixed = f + TwistedPoly.one()
    assert len(mixed.twists()) == 2


def test_poly_json_round_trip():
    f = _poly([Fraction(1, 3), GaussRat(0, 2)], twist=GaussRat(1, 1)) \
        + _poly([4])
    data = f.as_json()
    assert TwistedPoly.from_json(data) == f
    assert TwistedPoly.from_json(TwistedPoly.zero().as_json()).is_zero


def test_scalar_operations():
    f = _poly([1, 1])
    assert 2 * f == f + f
    assert f / GaussRat(2) + f / GaussRat(2) == f
    assert (f - f).is_zero
