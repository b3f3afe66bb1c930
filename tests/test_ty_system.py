"""T-functions on the hook, the bilinear lattice check, and characters."""

from __future__ import annotations

from fractions import Fraction

import pytest

from qsc22.exact_poly import GaussRat, TwistedPoly
from qsc22.qsystem import check_qq, generate_from_seed, hodge, random_seed_polys
from qsc22.ty_system import (
    DegenerateTwist,
    THook,
    in_hook,
    character_solution,
    check_hirota,
    gauge_T,
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


def _hirota_failures(th: THook, window) -> list:
    """Cells of the window whose bilinear equation fails on the table.

    Like check_hirota, (0,0) and out-of-hook cells are skipped; the
    table must reach one row and one column past the window.
    """
    def T(a, s):
        return th.values[(a, s)] if a >= 0 and s >= 0 else TwistedPoly.zero()

    failures = []
    for a in range(window[0] + 1):
        for s in range(window[1] + 1):
            if (a, s) == (0, 0) or not in_hook(a, s):
                continue
            mid = T(a, s)
            res = (mid.shift(1) * mid.shift(-1)
                   - T(a, s + 1) * T(a, s - 1) - T(a + 1, s) * T(a - 1, s))
            if not res.is_zero:
                failures.append((a, s))
    return failures


def test_reverse_shift_convention_also_satisfies_hirota():
    for seed in (4, 15):
        q = _system(seed)
        assert _hirota_failures(wronskian_T(q, (5, 5), reverse_shifts=True),
                                (4, 4)) == []
        plain = wronskian_T(q, (3, 3)).values
        raised = hodge(q)
        dual = wronskian_T(raised, (3, 3), reverse_shifts=True).values
        assert len(plain) == 16
        assert all(dual[cell] == val for cell, val in plain.items())
        # Without the reversal the raised system agrees only where both
        # tables are forced: T_{0,0} and the out-of-hook zero T_{3,3}.
        unreversed = wronskian_T(raised, (3, 3)).values
        assert sum(unreversed[cell] == val for cell, val in plain.items()) == 2


def _y_cross(t, a, s):
    """Cleared Y_{a,s}: (T_{a,s-1} T_{a,s+1}, T_{a-1,s} T_{a+1,s})."""
    return (t[(a, s - 1)] * t[(a, s + 1)], t[(a - 1, s)] * t[(a + 1, s)])


def test_gauge_T_rescales_cells():
    th = wronskian_T(_system(10), (5, 5))
    gs = [TwistedPoly.from_coeffs([GaussRat.coerce(c0), GaussRat.ONE])
          for c0 in (1, GaussRat(0, 1), -2, GaussRat(1, 1))]
    out = gauge_T(th, gs)
    assert out.window == th.window
    assert _hirota_failures(out, (4, 4)) == []
    for a, s in ((1, 1), (2, 2), (1, 2)):
        num, den = _y_cross(th.values, a, s)
        gnum, gden = _y_cross(out.values, a, s)
        assert gnum != num
        assert gnum * den == num * gden
    # Gauging one cell alone breaks exactly the equations it enters.
    one_cell = dict(th.values)
    one_cell[(1, 1)] = out.values[(1, 1)]
    assert _hirota_failures(THook(th.window, one_cell), (4, 4)) == [
        (1, 1), (1, 2), (2, 1)]


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


def test_character_normalization_is_pure_twist():
    q = character_solution(_gr("3/5", "4/5"), _gr("5/13", "12/13"))
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
