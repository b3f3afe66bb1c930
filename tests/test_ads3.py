"""Massive-sector Bethe states, dual auxiliaries, asymptotic Q, crossing."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from qsc22.ads3 import (
    AdS3Roots,
    AsymptoticQ,
    DressingModel,
    ShellViolation,
    aba_residuals,
    aux_b,
    aux_r,
    crossing_structure_check,
    dual_auxiliary_roots,
    momentum_defect,
    solve_single,
    solve_two_particle,
    solve_with_auxiliary,
    u_rapidity,
    weight_exponents,
)
from qsc22.analytic_layer import shell_pair, x_of_u


def test_roots_validation():
    plus, minus = shell_pair(1.0, 1.3)
    data = AdS3Roots(1.0, 4, xp=(plus,), xm=(minus,))
    assert data.xp == (plus,)
    with pytest.raises(ShellViolation):
        AdS3Roots(1.0, 4, xp=(plus,))
    with pytest.raises(ShellViolation):
        AdS3Roots(1.0, 4, xp=(plus,), xm=(0.3 + 0.1j,))
    with pytest.raises(ShellViolation):
        AdS3Roots(1.0, 4, xp=(plus,), xm=(minus + 0.01,))
    with pytest.raises(ValueError):
        AdS3Roots(-1.0, 4)


def test_roots_json_round_trip():
    plus, minus = shell_pair(1.0, 0.9)
    data = AdS3Roots(1.0, 6, xp=(plus,), xm=(minus,),
                     xbp=(plus,), xbm=(minus,),
                     y1=(2.5, -2.5), y3=(1.7,), y1b=(3.0,), y3b=())
    back = AdS3Roots.from_json(data.as_json())
    assert back == data
    assert AdS3Roots.from_json({"hcoup": 1.0, "L": 2}) == AdS3Roots(1.0, 2)


def test_u_rapidity_shell_identity():
    plus, minus = shell_pair(0.8, 1.1)
    up = u_rapidity(0.8, plus)
    um = 0.5 * 0.8 * (minus + 1.0 / minus) + 0.5j
    assert abs(up - um) < 1e-12
    assert abs(up.imag) < 1e-12


def test_single_pair_momentum_shell():
    state = solve_single(1.0, 8, 1)
    assert state.xp == ((2.72719236159964 + 1.1296400633748829j),)
    assert abs(state.xp[0] / state.xm[0]) == pytest.approx(1.0, abs=1e-12)
    assert (state.xp[0] / state.xm[0]) ** 8 == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(aba_residuals(state))) < 1e-10
    assert abs(momentum_defect(state)) == pytest.approx(0.7653668647301807,
                                                        abs=1e-12)
    # L * p < L * pi <= 2 pi * winding: no real rapidity reaches winding
    # 4 or 5 at L = 8, and the solver says so before it searches.
    for winding in (4, 5):
        with pytest.raises(ValueError, match=f"winding {winding} at L=8"):
            solve_single(1.0, 8, winding)
    assert np.max(np.abs(aba_residuals(solve_single(1.0, 8, 3)))) < 1e-10


def test_solvers_reject_volumes_and_windings_below_one():
    # Invalid arguments, not a failed search: ValueError, not NoConvergence.
    for solve, args in ((solve_single, (1.0, 8, 0)), (solve_single, (1.0, 0, 1)),
                        (solve_two_particle, (1.0, 8, 0)),
                        (solve_two_particle, (1.0, 0)),
                        (solve_two_particle, (1.0, 8, -1))):
        with pytest.raises(ValueError, match="winding >= 1"):
            solve(*args)


def test_two_particle_state():
    state = solve_two_particle(1.0, 8)
    assert state.xp == ((2.4810763201987514 + 1.1541361670049417j),
                        (-2.4810763201987514 + 1.1541361670049417j))
    assert state.xm == (state.xp[0].conjugate(), state.xp[1].conjugate())
    assert np.max(np.abs(aba_residuals(state))) < 1e-10
    assert abs(momentum_defect(state)) < 1e-12


def test_dressing_model_enters_equations():
    state = solve_two_particle(1.0, 8)
    skew = DressingModel(sigma=lambda a, b: 1.1 + 0.0j)
    res = aba_residuals(state, skew)
    assert np.max(np.abs(res)) > 0.1


def test_auxiliary_state():
    state = solve_with_auxiliary(1.0, 8, (0.4, 1.2))
    assert len(state.xp) == 4
    assert state.xp[0] == pytest.approx(0.43200423032907087
                                        + 1.5867335722287985j, abs=1e-10)
    assert state.xp[2] == pytest.approx(2.7858397078952692
                                        + 1.1246008122503879j, abs=1e-10)
    assert state.y1 == pytest.approx((2.530554271710706, -2.530554271710706),
                                     abs=1e-10)
    assert np.max(np.abs(aba_residuals(state))) < 1e-10
    assert abs(momentum_defect(state)) < 1e-12


def test_dual_auxiliary_towers():
    state = solve_with_auxiliary(1.0, 8, (0.4, 1.2))
    (y1t, y1bt), (y3t, y3bt) = dual_auxiliary_roots(state)
    assert y1bt == () and y3bt == ()
    assert len(y1t) == 1 and abs(y1t[0]) < 1e-10
    assert len(y3t) == 3
    y = abs(state.y1[0])
    assert sorted(v.real for v in y3t) == pytest.approx([-y, 0.0, y],
                                                        abs=1e-10)
    assert max(abs(v.imag) for v in y3t) < 1e-10


def test_duality_report():
    aq = AsymptoticQ(solve_with_auxiliary(1.0, 8, (0.4, 1.2)))
    rep = aq.duality
    assert not rep.trivial
    assert abs(rep.ratio_mean - 1.0) < 1e-12
    assert rep.ratio_rel_std < 1e-12
    assert rep.given_root_gap < 1e-12
    trivial = AsymptoticQ(AdS3Roots(1.0, 2)).duality
    assert trivial.trivial
    assert trivial.ratio_mean == 1.0
    assert trivial.ratio_rel_std == 0.0


def test_aux_b_is_reflected_aux_r():
    state = solve_with_auxiliary(1.0, 8, (0.4, 1.2))
    for x in (2.0, -1.5, 0.25, 0.5 + 0.25j):
        assert aux_b(x, state.y1, state.y1b) == aux_r(1.0 / x, state.y1,
                                                      state.y1b)
    # The solved state has no barred roots; this case has, and the
    # identity is bitwise wherever 1/(1/x) is exact, for every prefix.
    ys = (1.7 - 0.4j, -2.25 + 0.5j)
    ybars = (3.5 + 1.5j,)
    for x in (2.0, -1.5, 0.25):
        for n in range(len(ys) + 1):
            for m in range(len(ybars) + 1):
                assert aux_b(x, ys[:n], ybars[:m]) == aux_r(1.0 / x, ys[:n],
                                                            ybars[:m])


def test_trivial_asymptotic_q():
    aq = AsymptoticQ(AdS3Roots(1.0, 2))
    u = 0.37 + 0.82j
    x = x_of_u(u, 1.0)
    assert aq.q("1|0")(u) == x ** -1.0
    assert aq.q("1|12")(u) == x ** -1.0
    assert abs(aq.q("1|0")(u) * aq.q("0|1")(u) - 1.0) < 1e-12
    assert abs(aq.q("12|1")(u) * aq.q("1|12")(u) - 1.0) < 1e-12
    assert aq.q("1|1")(u) == 1.0
    assert aq.q("0|0")(u) == 1.0
    assert aq.q("12|12")(u) == 1.0
    with pytest.raises(ValueError):
        aq.q("2|1")


def test_weight_exponents():
    assert weight_exponents((0, 0, 0, 0, 0, 0, 0, 0)) == {
        "lamL": (1.0, 0.0), "nuL": (-1.0, 0.0),
        "lamR": (0.0, 1.0), "nuR": (0.0, -1.0)}
    for charges in ((3.5, 1, 2, 0, 1, 1, 0, 0),
                    (6.25, 2, 3, 1, 2, 1, 1, 0)):
        w = weight_exponents(charges)
        lead = -w["lamL"][0] - w["nuL"][0] - w["lamR"][0] - w["nuR"][0]
        assert lead == pytest.approx(charges[0] - charges[2], abs=1e-12)
        for pair in w.values():
            assert len(pair) == 2


def test_crossing_rules_out_constant_dressing():
    state = solve_two_particle(1.0, 8)
    constant = crossing_structure_check(state, lambda u, crossings: 1.0 + 0.0j)
    assert not constant.passed
    assert constant.rel_gap == pytest.approx(0.46165266784314857, abs=1e-12)
    assert constant.factor != 1.0
    # The statement holds for any state with massive roots, solved or not:
    # L=9 roots labelled L=8 (ABA residual 0.77) still rule the model out.
    misplaced = dataclasses.replace(solve_two_particle(1.0, 9), volume=8)
    constant = crossing_structure_check(misplaced, lambda u, crossings: 1.0 + 0.0j)
    assert not constant.passed
    assert constant.rel_gap == pytest.approx(0.39, abs=0.01)
