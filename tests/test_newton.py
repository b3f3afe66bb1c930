"""Damped Newton, path continuation, and bisection utilities."""

from __future__ import annotations

import collections
import math

import numpy as np
import pytest

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

    z = solve_damped(fun, jac, np.array([0.5]), real=True)
    assert z.dtype.kind == "f"
    assert abs(math.cos(z[0]) - z[0]) < 1e-13


def test_solve_damped_reports_failure():
    def fun(z):
        return np.array([z[0] ** 2 + 1.0])

    def jac(z):
        return np.array([[2.0 * z[0]]])

    with pytest.raises(NoConvergence) as info:
        solve_damped(fun, jac, np.array([1.0]), real=True, max_iter=25)
    # No real root: the best residual is the minimum of x^2 + 1 or above.
    assert info.value.residual >= 1.0


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
    z = solve_damped(fun, jac, start, real=True)
    assert abs(z[0] - math.sqrt(2.0)) < 1e-13
    with pytest.raises(NoConvergence):
        solve_damped(fun, flipped, start, real=True)


def test_continue_path_tracks_a_moving_root():
    def fun_of_t(t, z):
        return np.array([z[0] ** 2 - (1.0 + t)])

    def jac_of_t(t, z):
        return np.array([[2.0 * z[0]]])

    ts = np.linspace(0.0, 3.0, 31)[1:]
    z = continue_path(fun_of_t, jac_of_t, ts, np.array([1.0]), real=True)
    assert abs(z[0] - 2.0) < 1e-12


def test_continue_path_starts_each_step_from_the_secant_prediction():
    # The root z(t) = 1 + t moves linearly, so from the third step on
    # the secant prediction 2 z_k - z_{k-1} is the root up to rounding
    # and one residual evaluation confirms it.  Starting from the last
    # root instead costs a Newton step and a second evaluation.
    evals = collections.Counter()

    def fun_of_t(t, z):
        evals[t] += 1
        return np.array([z[0] ** 2 - (1.0 + t) ** 2])

    def jac_of_t(t, z):
        return np.array([[2.0 * z[0]]])

    ts = [0.25 * k for k in range(1, 11)]
    z = continue_path(fun_of_t, jac_of_t, ts, np.array([1.0]), real=True,
                      tol=1e-10)
    assert abs(z[0] - 3.5) < 1e-12
    assert evals[ts[0]] > 1
    assert [evals[t] for t in ts[2:]] == [1] * 8


def test_continue_path_detects_collisions():
    # Two roots driven together: +-sqrt(1-t) meet at t = 1, so the
    # guard must fire once their separation drops below the tolerance.
    def fun_of_t(t, z):
        return np.array([z[0] + z[1], z[0] * z[1] + (1.0 - t)])

    def jac_of_t(t, z):
        return np.array([[1.0, 1.0], [z[1], z[0]]])

    ts = np.linspace(0.0, 0.999, 101)[1:]
    with pytest.raises(PathCollision):
        continue_path(fun_of_t, jac_of_t, ts, np.array([1.0, -1.0]),
                      collision_groups=(range(2),), collision_tol=0.25,
                      real=True)


def test_bisect_real():
    root = bisect_real(lambda x: x ** 3 - 2.0, 0.0, 2.0)
    assert abs(root - 2.0 ** (1.0 / 3.0)) < 1e-13
    with pytest.raises(ValueError):
        bisect_real(lambda x: 1.0 + x * x, -1.0, 1.0)
