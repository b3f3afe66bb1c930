"""Zhukovsky geometry, source functions, truncated products, P-mu checks."""

from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest

from qsc22.acceptance import _canonical_nested
from qsc22.ads3 import AdS3Roots, ShellViolation
from qsc22.analytic_layer import (
    SHELL_TOL,
    MassiveTower,
    OnCut,
    SourceF,
    baxter_step,
    caseb_p_evaluators,
    pmu_residual_caseB,
    shell_gap,
    shell_pair,
    shell_pairs,
    truncated_f,
    truncated_mu,
    u_of_x,
    x_of_u,
)
from qsc22.hubbard_bethe import HubbardSpec


def _off_cut_points(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [complex(rng.uniform(-3.0, 3.0), 0.21 + rng.uniform(0.0, 0.55))
            for _ in range(count)]


def _sources() -> list:
    """Root-data sources with one and two pairs at two couplings."""
    out = []
    for hcoup, vs in ((1.0, [0.7, -0.7]), (0.6, [1.4])):
        out.append(SourceF(hcoup, *shell_pairs(hcoup, vs)))
    return out


def test_zhukovsky_inverse_on_both_sheets():
    # The inner-sheet point is 1/x of the outer one and maps to the same u.
    for u in _off_cut_points(1, 25):
        x = x_of_u(u, 1.3)
        assert abs(x) > 1.0 and abs(1.0 / x) < 1.0
        for point in (x, 1.0 / x):
            assert abs(u_of_x(point, 1.3) - u) < 1e-12


def test_open_cut_is_rejected():
    for u in (0.3, -0.99, 0.0):
        with pytest.raises(OnCut):
            x_of_u(u, 1.0)
    # The branch points and the real line outside the cut are reachable.
    assert x_of_u(1.0, 1.0) == 1.0
    assert abs(x_of_u(-2.5, 1.0)) > 1.0


def test_shell_pair_constraint():
    for h, v in ((1.0, 0.7), (0.5, 1.3), (2.0, -0.4)):
        yp, ym = shell_pair(h, v)
        assert abs(yp + 1.0 / yp - ym - 1.0 / ym - 2j / h) < 1e-12
        assert abs(yp) > 1.0 and abs(ym) > 1.0


def test_source_unimodularity():
    points = _off_cut_points(7, 250)
    for source in _sources():
        for u in points:
            x = x_of_u(u, source.hcoup)
            assert abs(source.eval_x(x) * source.eval_x(1.0 / x) - 1.0) < 1e-12


def test_source_sheet_swap_inverts():
    source = _sources()[0]
    u = 0.8 + 0.6j
    assert abs(source(u) * source.eval_x(1.0 / x_of_u(u, 1.0)) - 1.0) < 1e-12


def test_source_without_pairs_is_one():
    source = SourceF(1.0)
    for u in _off_cut_points(17, 5):
        assert source(u) == 1.0
        assert source.eval_x(1.0 / x_of_u(u, 1.0)) == 1.0


def test_ext_source_validation():
    with pytest.raises(ValueError):
        SourceF(1.0, [0.5 + 0.5j], [2.0 - 1.0j])
    with pytest.raises(ValueError):
        SourceF(1.0, [2.0 + 2.0j], [2.0 - 1.0j])
    yplus, yminus = shell_pair(1.0, 0.7)
    with pytest.raises(ValueError):
        SourceF(1.0, [yplus, yplus], [yminus])


def test_shell_validators_share_one_bound():
    yplus, yminus = shell_pair(1.0, 0.7)
    assert shell_gap(1.0, yplus, yminus) < 1e-15
    SourceF(1.0, [yplus], [yminus])
    HubbardSpec(1.0, (yplus,), (yminus,))
    AdS3Roots(1.0, 2, (yplus,), (yminus,))
    off = yminus + 5e-9
    assert shell_gap(1.0, yplus, off) == pytest.approx(5.65e-9, abs=1e-11)
    assert shell_gap(1.0, yplus, off) > SHELL_TOL
    with pytest.raises(ValueError):
        SourceF(1.0, [yplus], [off])
    with pytest.raises(ValueError):
        HubbardSpec(1.0, (yplus,), (off,))
    with pytest.raises(ShellViolation):
        AdS3Roots(1.0, 2, (yplus,), (off,))


def _qq_gap(tower: MassiveTower) -> float:
    """Worst |(-1)^m B_+-(x) R_+-(x) - Q(u(x) +- i/2)| over both branches."""
    gaps = []
    for x in (1.7 + 0.4j, -2.2 + 0.9j):
        for branch in (+1, -1):
            lhs = (-1) ** len(tower.plus) * tower.b(branch, x) * tower.r(branch, x)
            gaps.append(abs(lhs - tower.qq(u_of_x(x, tower.hcoup) + 0.5j * branch)))
    return max(gaps)


def test_two_branch_factors_multiply_to_qq():
    yplus, yminus = shell_pairs(1.0, [0.7, -0.7])
    assert _qq_gap(MassiveTower(1.0, yplus, yminus)) < 1e-12
    # With plus and minus swapped the plus branch lands a shift of i off.
    assert _qq_gap(MassiveTower(1.0, yminus, yplus)) > 1.0


def test_truncation_telescopes():
    for source in _sources():
        for n in (4, 16):
            for u in _off_cut_points(3, 40):
                lhs = truncated_f(source, n, u) / truncated_f(source, n, u + 1j)
                rhs = source(u) / source(u + 1j * (n + 1))
                assert abs(lhs / rhs - 1.0) < 1e-12


def test_truncated_mu_matches_truncated_products():
    # mu_N = f_N(u) / f_{N-1}(u - iN).
    for source in _sources():
        for n in (4, 16):
            for u in _off_cut_points(5, 40):
                mu = truncated_mu(source, n, u)
                lower = truncated_f(source, n - 1, u - 1j * n)
                assert abs(mu * lower / truncated_f(source, n, u) - 1.0) < 1e-12


def test_null_pair_solves_the_system_identically():
    source = SourceF(1.0)

    def p_eval(x):
        return (0.0 + 0j, x + 2.0)

    def pstar_eval(x):
        return (x + 2.0, 0.0 + 0j)

    for u in _off_cut_points(11, 10):
        res = pmu_residual_caseB(p_eval, pstar_eval, source, 6, u)
        assert np.max(np.abs(res)) < 1e-12


def test_vanishing_p_is_consistent_with_unit_f():
    source = SourceF(1.0)

    def zero_eval(x):
        return (0.0 + 0j, 0.0 + 0j)

    for u in _off_cut_points(13, 6):
        res = pmu_residual_caseB(zero_eval, zero_eval, source, 6, u)
        assert np.max(np.abs(res)) < 1e-12


def test_caseb_evaluators_close_the_monodromy_system():
    spec, roots = _canonical_nested()
    assert roots.x1e[0].real == -9.0792186463333
    source = SourceF(spec.hcoup, spec.yplus, spec.yminus)
    p_eval, pstar_eval, fit = caseb_p_evaluators(source, roots.x1e, roots.x112)
    assert fit < 1e-12
    for u in (0.31 + 0.77j, -0.52 + 0.61j, 2.05 + 0.15j):
        res = pmu_residual_caseB(p_eval, pstar_eval, source, 12, u)
        assert np.max(np.abs(res)) < 1e-8


def _constrained_step_data(seed: int):
    rng = random.Random(seed)

    def entry():
        return rng.uniform(0.3, 1.5) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))

    fval = 0.7 + 0.4j
    p = np.array([entry(), entry()])
    direction = np.array([entry(), entry()])
    pstar = direction * ((1.0 / fval - fval) / (direction @ p))
    mu = np.array([[entry(), entry()], [entry(), entry()]])
    return mu, p, pstar, fval


def test_baxter_step_scalings():
    for seed in range(5):
        mu, p, pstar, fval = _constrained_step_data(seed)
        out = baxter_step(mu, p, pstar, fval)
        anti_in = (mu[0, 1] - mu[1, 0]) / 2.0
        anti_out = (out[0, 1] - out[1, 0]) / 2.0
        assert abs(anti_out / anti_in * fval ** 2 - 1.0) < 1e-12
        det_in = np.linalg.det((mu + mu.T) / 2.0)
        det_out = np.linalg.det((out + out.T) / 2.0)
        assert abs(det_out / det_in * fval ** 4 - 1.0) < 1e-12


def test_baxter_step_factor_inverse_identity():
    _, p, pstar, fval = _constrained_step_data(9)
    left = np.eye(2) + np.outer(p, pstar) / fval
    right = np.eye(2) - fval * np.outer(p, pstar)
    assert np.max(np.abs(left @ right - np.eye(2))) < 1e-12


def test_baxter_step_rejects_bad_input():
    with pytest.raises(ValueError):
        baxter_step(np.eye(2), [1.0, 0.0], [0.0, 1.0], 0.0)
    with pytest.raises(ValueError):
        baxter_step(np.eye(3), [1.0, 0.0], [0.0, 1.0], 1.0)
