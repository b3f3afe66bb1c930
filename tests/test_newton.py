"""Damped Newton, path continuation, and bisection utilities."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qsc22 import _newton
from qsc22._newton import (
    NoConvergence,
    PathCollision,
    bisect_real,
    continue_path,
    solve_damped,
)


def test_solve_damped_complex_system():
    def fun(z):
        return np.array([z[0] ** 2 + 1.0, z[0] * z[1] - 2.0])

    def jac(z):
        return np.array([[2.0 * z[0], 0.0], [z[1], z[0]]])

    z = solve_damped(fun, jac, np.array([0.3 + 0.8j, 1.0 + 0.0j]))
    assert abs(z[0] - 1j) < 1e-12 or abs(z[0] + 1j) < 1e-12
    assert abs(z[0] * z[1] - 2.0) < 1e-12


def test_solve_damped_real_mode_stays_real():
    def fun(z):
        return np.array([math.cos(z[0]) - z[0]])

    def jac(z):
        return np.array([[-math.sin(z[0]) - 1.0]])

    z = solve_damped(fun, jac, np.array([0.5]))
    assert z.dtype.kind == "f"
    assert abs(math.cos(z[0]) - z[0]) < 1e-13


def test_solve_damped_iterate_follows_the_start():
    # A real start gives a float iterate and a complex one a complex
    # iterate; no flag chooses between them.
    def fun(z):
        return np.array([z[0] ** 2 - 2.0])

    def jac(z):
        return np.array([[2.0 * z[0]]])

    for start, dtype in (([1], np.float64), (np.array([1.0]), np.float64),
                         (np.array([1.0 + 0.0j]), np.complex128),
                         ([1.0 + 0.5j], np.complex128)):
        z = solve_damped(fun, jac, start)
        assert z.dtype == dtype, start
        assert abs(z[0] - math.sqrt(2.0)) < 1e-13


def test_solve_damped_reports_failure():
    # Newton on |z|^0.6 maps z to -2z/3, so each step keeps 0.78 of the
    # residual: the line search accepts every full step, and _MAX_ITER
    # of them end far above tol.
    evals = []

    def fun(z):
        evals.append(z[0])
        return np.array([math.copysign(abs(z[0]) ** 0.6, z[0])])

    def jac(z):
        return np.array([[0.6 * abs(z[0]) ** -0.4]])

    with pytest.raises(NoConvergence, match=f"after {_newton._MAX_ITER} iterations") as info:
        solve_damped(fun, jac, np.array([1.0]))
    assert len(evals) == _newton._MAX_ITER + 1
    assert info.value.residual == pytest.approx((2.0 / 3.0) ** (0.6 * _newton._MAX_ITER))


def test_solve_damped_rejects_a_sign_flipped_jacobian():
    # Negative control: with the sign of the Jacobian flipped every
    # Newton step points uphill, so the line search must stall.
    def fun(z):
        return np.array([z[0] ** 2 - 2.0, z[1] - 1.0])

    def jac(z):
        return np.array([[2.0 * z[0], 0.0], [0.0, 1.0]])

    def flipped(z):
        out = jac(z)
        out[0, 0] = -out[0, 0]
        return out

    start = np.array([1.0, 1.0])
    z = solve_damped(fun, jac, start)
    assert abs(z[0] - math.sqrt(2.0)) < 1e-13
    with pytest.raises(NoConvergence):
        solve_damped(fun, flipped, start)


def test_continue_path_tracks_a_moving_root():
    def fun_of_t(t, z):
        return np.array([z[0] ** 2 - (1.0 + t)])

    def jac_of_t(t, z):
        return np.array([[2.0 * z[0]]])

    z = continue_path(fun_of_t, jac_of_t, 0.0, 3.0, np.array([1.0]))
    assert abs(z[0] - 2.0) < 1e-12


def _recording_solves(monkeypatch):
    """Record (t, converged) for every corrector solve continue_path makes."""
    solve = _newton.solve_damped
    attempts = []

    def recording(fun, jac, z0, **kwargs):
        try:
            z = solve(fun, jac, z0, **kwargs)
        except NoConvergence:
            attempts.append((fun.args[0], False))
            raise
        attempts.append((fun.args[0], True))
        return z

    monkeypatch.setattr(_newton, "solve_damped", recording)
    return attempts


def test_continue_path_starts_each_step_from_the_secant_prediction(monkeypatch):
    # The root z(t) = t of arctan(z - t) moves linearly.  From z = 0 the
    # first Newton iterate does not halve the residual at t = 2.5 or
    # 1.25, so the first accepted step ends at t = 0.625.  From there
    # the secant through the last two roots, scaled to the doubled step,
    # is the root up to rounding, and one residual evaluation confirms
    # it at each later step.  From the last root alone, the corrector at
    # t = 1.875 would start 1.25 off the root and be rejected.
    attempts = _recording_solves(monkeypatch)
    evals = []

    def fun_of_t(t, z):
        evals.append(t)
        return np.array([math.atan(z[0] - t)])

    def jac_of_t(t, z):
        return np.array([[1.0 / (1.0 + (z[0] - t) ** 2)]])

    z = continue_path(fun_of_t, jac_of_t, 0.0, 2.5, np.array([0.0]), tol=1e-10)
    assert abs(z[0] - 2.5) < 1e-12
    assert attempts == [(2.5, False), (1.25, False), (0.625, True), (1.875, True),
                        (2.5, True)]
    assert evals.count(0.625) > 1
    assert evals[-3:] == [0.625, 1.875, 2.5]


def test_continue_path_halves_a_failed_step_and_still_reaches_t1(monkeypatch):
    # Newton on arctan(z - t) overshoots from far away, so from z = 0
    # the first iterate does not halve the residual at t = 10, 5, 2.5 or
    # 1.25, and the corrector stops there.  Each failed step is retried
    # at half its length, each accepted one doubles the next, and the
    # last is cut to end at t1.
    attempts = _recording_solves(monkeypatch)

    def fun_of_t(t, z):
        return np.array([math.atan(z[0] - t)])

    def jac_of_t(t, z):
        return np.array([[1.0 / (1.0 + (z[0] - t) ** 2)]])

    z = continue_path(fun_of_t, jac_of_t, 0.0, 10.0, np.array([0.0]))
    assert abs(z[0] - 10.0) < 1e-12
    assert attempts == [(10.0, False), (5.0, False), (2.5, False), (1.25, False),
                        (0.625, True), (1.875, True), (4.375, True),
                        (9.375, True), (10.0, True)]


def test_continue_path_accepts_a_long_contracting_corrector(monkeypatch):
    # Newton on e^z - e^t from above the root moves z down by about 1
    # and keeps about 1/e of the residual per iteration, so from z = 10
    # the corrector at t = 0 needs 15 iterations, each of them
    # contracting; the step is accepted whole.
    attempts = _recording_solves(monkeypatch)
    evals = []

    def fun_of_t(t, z):
        evals.append(t)
        return np.array([math.exp(z[0]) - math.exp(t)])

    def jac_of_t(t, z):
        return np.array([[math.exp(z[0])]])

    z = continue_path(fun_of_t, jac_of_t, 10.0, 0.0, np.array([10.0]))
    assert abs(z[0]) < 1e-13
    assert attempts == [(0.0, True)]
    assert len(evals) == 16

    # From z = 1, Newton on z^2 = 1.5 lands at 1.25, where the residual
    # is 1/8 of the start's, and every later iterate contracts faster:
    # the whole-path corrector is again the only solve.
    attempts.clear()
    z = continue_path(lambda t, z: np.array([z[0] ** 2 - (1.0 + t)]),
                      lambda t, z: np.array([[2.0 * z[0]]]), 0.0, 0.5, np.array([1.0]))
    assert abs(z[0] - math.sqrt(1.5)) < 1e-13
    assert attempts == [(0.5, True)]


def test_continue_path_rejects_a_corrector_that_does_not_halve_the_residual(monkeypatch):
    # From z = 0, Newton on arctan(z - 1) lands at z = 1.57, where the
    # residual is 0.66 of the start's: the corrector stops after that
    # one iteration, two residual evaluations, and the step is halved.
    # The first iterate at t = 0.5 keeps 0.17 of the residual.
    attempts = _recording_solves(monkeypatch)
    evals = []

    def fun_of_t(t, z):
        evals.append(t)
        return np.array([math.atan(z[0] - t)])

    def jac_of_t(t, z):
        return np.array([[1.0 / (1.0 + (z[0] - t) ** 2)]])

    z = continue_path(fun_of_t, jac_of_t, 0.0, 1.0, np.array([0.0]))
    assert abs(z[0] - 1.0) < 1e-12
    assert attempts == [(1.0, False), (0.5, True), (1.0, True)]
    assert evals[:3] == [1.0, 1.0, 0.5]


def test_continue_path_gives_up_below_the_step_floor(monkeypatch):
    # z^2 + t = 0 has no real root for t > 0, so every step fails and is
    # halved, from the whole path on, until it falls below _STEP_FLOOR
    # of the path length.
    attempts = _recording_solves(monkeypatch)

    def fun_of_t(t, z):
        return np.array([z[0] ** 2 + t])

    def jac_of_t(t, z):
        return np.array([[2.0 * z[0]]])

    with pytest.raises(NoConvergence, match="step floor") as info:
        continue_path(fun_of_t, jac_of_t, 0.0, 2.0, np.array([0.0]))
    floor = _newton._STEP_FLOOR * 2.0
    assert not any(ok for _, ok in attempts)
    assert [t for t, _ in attempts] == [2.0 * 0.5 ** k for k in range(len(attempts))]
    assert floor <= attempts[-1][0] < 2.0 * floor
    assert info.value.residual == pytest.approx(attempts[-1][0])


def test_continue_path_ends_on_a_path_shorter_than_the_resolution_of_t():
    # A path one ulp long, and one where t0 + (t1 - t0) rounds to
    # 0.9000000000000001: the last step must land on t1 itself.  The
    # scale makes a one-ulp miss of the root z = t fail the tolerance.
    def fun_of_t(t, z):
        return np.array([1e15 * (z[0] - t)])

    def jac_of_t(t, z):
        return np.array([[1e15]])

    for t0, t1 in ((1e-3, math.nextafter(1e-3, 1.0)), (0.3, 0.9)):
        z = continue_path(fun_of_t, jac_of_t, t0, t1, np.array([t0]))
        assert z[0] == t1
        for bad in (t0, math.nan):
            with pytest.raises(ValueError, match="no direction"):
                continue_path(fun_of_t, jac_of_t, t0, bad, np.array([t0]))


def test_continue_path_detects_collisions():
    # Two roots driven together: +-(1 - t) meet at t = 1, as a double root
    # of the quadratic system and as two crossing simple roots of the
    # linear one.  At the double root Newton only halves the distance to
    # it, so from the whole-path start the corrector stops with the roots
    # about 2.4e-7 apart, inside 2 sqrt(tol) = 6.3e-7.  At t = 0.999 and
    # 1 - 1e-6 the roots are 2e-3 and 2e-6 apart and the path ends there;
    # to a corrector stopping at 1e-10, 2e-6 is inside 2 sqrt(tol) = 2e-5.
    def quadratic(t, z):
        return np.array([z[0] + z[1], z[0] * z[1] + (1.0 - t) ** 2])

    def quadratic_jac(t, z):
        return np.array([[1.0, 1.0], [z[1], z[0]]])

    def linear(t, z):
        return np.array([z[0] - (1.0 - t), z[1] + (1.0 - t)])

    def linear_jac(t, z):
        return np.eye(2)

    start = np.array([1.0, -1.0])
    for fun_of_t, jac_of_t in ((quadratic, quadratic_jac), (linear, linear_jac)):
        for t1 in (0.999, 1.0 - 1e-6):
            z = continue_path(fun_of_t, jac_of_t, 0.0, t1, start,
                              collision_groups=(range(2),))
            assert np.allclose(z, [1.0 - t1, t1 - 1.0], rtol=0.0, atol=1e-7)
        with pytest.raises(PathCollision, match="collided at t=1.0"):
            continue_path(fun_of_t, jac_of_t, 0.0, 1.0, start,
                          collision_groups=(range(2),))
    with pytest.raises(PathCollision, match="collided"):
        continue_path(quadratic, quadratic_jac, 0.0, 1.0 - 1e-6, start, tol=1e-10,
                      collision_groups=(range(2),))


def test_continue_path_detects_roots_that_cross_between_steps(monkeypatch):
    # z0 = t - 1/2 and z1 = 1/2 - t cross at t = 1/2.  The one accepted
    # step lands at t = 1, where the roots are 1 apart, so only the
    # order guard can see the crossing; without the collision group, or
    # from a complex start, which has no order, the path runs through.
    attempts = _recording_solves(monkeypatch)

    def fun_of_t(t, z):
        return np.array([z[0] - (t - 0.5), z[1] - (0.5 - t)])

    def jac_of_t(t, z):
        return np.eye(2)

    start = np.array([-0.5, 0.5])
    with pytest.raises(PathCollision, match="swapped order"):
        continue_path(fun_of_t, jac_of_t, 0.0, 1.0, start,
                      collision_groups=(range(2),))
    assert attempts == [(1.0, True)]
    z = continue_path(fun_of_t, jac_of_t, 0.0, 1.0, start)
    assert np.allclose(z, [0.5, -0.5])
    z = continue_path(fun_of_t, jac_of_t, 0.0, 1.0, start.astype(complex),
                      collision_groups=(range(2),))
    assert z.dtype == np.complex128
    assert np.allclose(z, [0.5, -0.5])


def test_bisect_real():
    root = bisect_real(lambda x: x ** 3 - 2.0, 0.0, 2.0)
    assert abs(root - 2.0 ** (1.0 / 3.0)) < 1e-13
    with pytest.raises(ValueError):
        bisect_real(lambda x: 1.0 + x * x, -1.0, 1.0)
