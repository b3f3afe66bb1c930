"""T-functions on the hook, the bilinear lattice check, and characters."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from qsc22.exact_poly import GaussRat, TwistedPoly
from qsc22.qsystem import check_qq, generate_from_seed, hodge, random_seed_polys
from qsc22.ty_system import (
    DegenerateTwist,
    character_solution,
    check_hirota,
    t_function,
    wronskian_T,
    y_pair,
)


def _system(seed: int):
    return generate_from_seed(*random_seed_polys(seed))


def _gr(re, im=0) -> GaussRat:
    return GaussRat(Fraction(re), Fraction(im))


def test_t_function_matches_the_hook_table():
    q = _system(4)
    th = wronskian_T(q, (3, 3))
    for (a, s), val in th.values.items():
        assert val == t_function(q, a, s)


def test_hirota_passes_on_generated_systems():
    for seed in (2, 8, 64):
        rep = check_hirota(_system(seed))
        assert rep.ok
        assert rep.checked > 0
        assert rep.failures == ()


def test_hirota_window_boundary_cells_are_skipped():
    rep = check_hirota(_system(2), (4, 4))
    assert "0,0" in rep.skipped
    assert "4,4" in rep.skipped


def test_hirota_detects_corruption():
    from qsc22.qsystem import QSystem

    q = _system(6)
    mapping = {s: q[s] for s in q}
    mapping["12|1"] = mapping["12|1"] + TwistedPoly.from_coeffs(
        [GaussRat.ZERO, GaussRat.ONE])
    rep = check_hirota(QSystem(mapping))
    assert not rep.ok
    assert rep.failures


def test_y_identity_on_generated_systems():
    for seed in (3, 12):
        q = _system(seed)
        n11, d11 = y_pair(q, 1, 1)
        n22, d22 = y_pair(q, 2, 2)
        corner = q["12|12"]
        assert n11 * n22 * corner.shift(-1) == d11 * d22 * corner.shift(1)


def test_raised_system_gives_another_t_family():
    # The T table of the raised system agrees with the plain one only
    # where both are forced: T_{0,0} and the out-of-hook zero T_{3,3}.
    # So the character battery's equality of the two tables is a
    # property of pure-twist solutions, not of every Q-system.
    for seed in (4, 15):
        q = _system(seed)
        plain = wronskian_T(q, (3, 3)).values
        raised = wronskian_T(hodge(q), (3, 3)).values
        assert len(plain) == 16
        assert [cell for cell, val in plain.items() if raised[cell] == val] == [
            (0, 0), (3, 3)]


def test_character_solution_frozen_values():
    sx = _gr("3/5", "4/5")
    sy = _gr("5/13", "12/13")
    q = character_solution(sx, sy)
    assert q["0|0"] == TwistedPoly.one()
    assert q["12|0"] == TwistedPoly.constant(_gr(0, "-48/25"))
    assert q["0|12"] == TwistedPoly.constant(_gr(0, "240/169"))
    assert q["12|12"] == TwistedPoly.constant(_gr("190125/50176"))
    assert q["1|1"] == TwistedPoly.from_coeffs(
        [_gr(0, "65/32")], twist=_gr("63/65", "-16/65"))
    assert q["12|1"] == TwistedPoly.from_coeffs(
        [_gr(0, "-507/224")], twist=_gr("5/13", "-12/13"))


def test_character_solution_satisfies_everything():
    q = character_solution(_gr("3/5", "4/5"), _gr("5/13", "12/13"))
    assert check_qq(q).ok
    assert check_hirota(q).ok
    th = wronskian_T(q)
    dual = wronskian_T(hodge(q))
    for cell, val in th.values.items():
        assert dual.values[cell] == val
        assert val.shift(2) == val


def _half_twists() -> list:
    """The 22 distinct half-twists z / conj(z), z = a + bi with a != b in
    1..6, that the character battery draws from."""
    out = []
    for a, b in itertools.product(range(1, 7), repeat=2):
        z = GaussRat(a, b)
        if a != b and z / z.conjugate() not in out:
            out.append(z / z.conjugate())
    return out


def test_character_normalization_is_pure_twist():
    halves = _half_twists()
    assert len(halves) == 22
    # Each half-twist once as sx and once as sy.
    for sx, sy in zip(halves, halves[1:] + halves[:1]):
        q = character_solution(sx, sy)
        assert q["0|0"] == TwistedPoly.one()
        for slot in ("1|0", "2|0", "0|1", "0|2"):
            assert q[slot].degree() == 0
            ((twist, coeffs),) = q[slot].terms
            assert coeffs == (GaussRat.ONE,)
            assert twist * twist.conjugate() == GaussRat.ONE


def test_degenerate_twists_are_rejected():
    with pytest.raises(DegenerateTwist):
        character_solution(_gr(0, 1), _gr("5/13", "12/13"))
    with pytest.raises(DegenerateTwist):
        character_solution(_gr("3/5", "4/5"), _gr("3/5", "4/5"))
