"""Exact arithmetic kernel: Gaussian rationals and twisted polynomials."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsc22.exact_poly import GaussRat, NotDivisible, TwistedPoly, exact_div, wronskian

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
gauss = st.builds(GaussRat, rationals, rationals)
nonzero_gauss = gauss.filter(bool)


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
    """g = hi + lo on two twists with deg lo < deg hi, so the top degree
    sits in one term and g's top coefficient is a unit: the multi-twist
    branch of exact_div is then complete and the quotient unique."""
    s_hi, s_lo = draw(st.sampled_from(list(itertools.permutations(TWISTS, 2))))
    hi = draw(st.builds(_top_poly, st.lists(gauss, min_size=1, max_size=2),
                        nonzero_gauss, st.just(s_hi)))
    lo = draw(st.builds(_top_poly, st.lists(gauss, max_size=hi.degree() - 1),
                        nonzero_gauss, st.just(s_lo)))
    return hi + lo


def _assert_canonical(p: TwistedPoly) -> None:
    keys = [s.sort_key() for s in p.twists()]
    assert keys == sorted(set(keys))
    for _, d, re, im in p._t:
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
def test_negation_shares_shifts(f, k):
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


def test_canonical_form_reduces_by_the_gcd():
    f = _poly([Fraction(1, 2), GaussRat(0, Fraction(1, 3)), 1])
    thirds = _poly([Fraction(1, 6), GaussRat(0, Fraction(1, 9)), Fraction(1, 3)])
    assert thirds * 3 == f and hash(thirds * 3) == hash(f)
    assert (f / 3) * 3 == f
    assert f._t == ((GaussRat(1), 6, (3, 0, 6), (0, 2, 0)),)


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


def test_exact_div_round_trip():
    f = _poly([1, 2, 1])
    g = _poly([1, 1])
    assert exact_div(f, g) == g
    with pytest.raises(NotDivisible):
        exact_div(_poly([1, 0, 1]), _poly([1, 1]))


@given(small_polys, st.one_of(single_twist, two_twist()))
@settings(max_examples=60)
def test_exact_div_inverts_multiplication(f, g):
    q = exact_div(f * g, g)
    assert q == f
    _assert_canonical(q)


@given(small_polys, st.one_of(single_twist.filter(lambda g: g.degree() >= 1),
                              two_twist()))
@settings(max_examples=60)
def test_exact_div_rejects_a_remainder(f, g):
    with pytest.raises(NotDivisible):
        exact_div(f * g + 1, g)


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
