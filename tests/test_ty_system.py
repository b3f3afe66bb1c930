"""T-functions on the hook, the bilinear lattice check, and characters."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from qsc22.exact_poly import GaussRat, TwistedPoly
from qsc22.qsystem import (
    SLOTS,
    QSystem,
    check_qq,
    generate_from_seed,
    hodge,
    random_seed_polys,
)
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
    q = _system(6)
    mapping = {s: q[s] for s in q}
    mapping["12|1"] = mapping["12|1"] + TwistedPoly.from_coeffs(
        [GaussRat.ZERO, GaussRat.ONE])
    rep = check_hirota(QSystem(mapping))
    assert not rep.ok
    assert rep.failures


def _corner_y_sides(q, with_q00: bool) -> tuple:
    """Cleared sides of Y_{1,1} Y_{2,2} = Q_{12|12}^+ Q_{0|0}^- / (Q_{12|12}^- Q_{0|0}^+)."""
    n11, d11 = y_pair(q, 1, 1)
    n22, d22 = y_pair(q, 2, 2)
    lhs, rhs = n11 * n22 * q["12|12"].shift(-1), d11 * d22 * q["12|12"].shift(1)
    if with_q00:
        lhs, rhs = lhs * q["0|0"].shift(1), rhs * q["0|0"].shift(-1)
    return lhs, rhs


def _random_slots(seed: int) -> QSystem:
    """16 random twisted polynomials, which satisfy no QQ relation."""
    rng = random.Random(seed)

    def poly() -> TwistedPoly:
        coeffs = [_gr(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(rng.randint(1, 3))] + [_gr(1)]
        return TwistedPoly.from_coeffs(coeffs, twist=_gr(rng.randint(1, 2), rng.randint(0, 1)))

    return QSystem({slot: poly() for slot in SLOTS})


def test_corner_y_identity_holds_for_any_slots():
    # T_{1,2} and T_{2,1} cancel and T_{2,3} = T_{3,2}, so the identity
    # follows from t_function alone; it needs no QQ relation.
    b0, (b1, b2, _, _) = random_seed_polys(11)
    b3, b4 = TwistedPoly.from_coeffs([1, 0, 1]), TwistedPoly.from_coeffs([2, 1])
    quadratic_q00 = generate_from_seed(b0, (b1, b2, b3, b4))
    assert quadratic_q00["0|0"].degree() == 2
    assert check_qq(quadratic_q00).ok and check_hirota(quadratic_q00).ok
    random_slots = _random_slots(5)
    assert not check_qq(random_slots).ok
    for q in (_system(3), _system(12), quadratic_q00, random_slots):
        lhs, rhs = _corner_y_sides(q, with_q00=True)
        assert lhs == rhs
    # Without the Q_{0|0} factors it reads Q_{0|0}^+ = Q_{0|0}^-, which
    # random_seed_polys satisfies only because its Q_{0|0} is constant.
    lhs, rhs = _corner_y_sides(_system(3), with_q00=False)
    assert lhs == rhs
    lhs, rhs = _corner_y_sides(quadratic_q00, with_q00=False)
    assert lhs != rhs


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
