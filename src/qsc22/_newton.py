"""Damped Newton iteration and one-parameter continuation.

Solvers here work on vector residual functions, and every caller
supplies the Jacobian in closed form alongside the residual; nothing
here takes finite differences.  Newton's start vector decides the
arithmetic: a real start gives a float iterate, a complex one a complex
iterate.  Continuation tracks real roots only, so that it can guard
their order.  Damping is Armijo backtracking on the residual 2-norm.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import partial
from typing import Callable, Sequence, Tuple

import numpy as np

_ARMIJO = 1e-4
_BISECT_TOL = 1e-14
_BISECT_MAX_ITER = 200
_MAX_ITER = 60
_STEP_FLOOR = 1e-6


class NoConvergence(RuntimeError):
    """Newton iteration failed to reach the residual target.

    `residual` is the smallest max-norm residual reached, or inf when
    the failure is not a residual stall.
    """

    def __init__(self, message: str, residual: float = math.inf) -> None:
        super().__init__(message)
        self.residual = residual


class PathCollision(RuntimeError):
    """Two tracked roots approached each other along a continuation path."""


class SingularDenominator(ValueError):
    """A residual denominator (or numerator under a log) vanished."""


def _ratio(num: complex, den: complex) -> complex:
    """num / den; SingularDenominator if |num| or |den| < 1e-13 (1 + |num| + |den|).

    The guard is formed on the magnitudes quartered, so neither they
    nor their sum overflow for a finite num and den; a power of two
    changes no comparison above the subnormal range, where both forms
    raise.
    """
    size_num, size_den = abs(num * 0.25), abs(den * 0.25)
    guard = 1e-13 * (0.25 + size_num + size_den)
    if size_den < guard or size_num < guard:
        raise SingularDenominator(f"factor {num} / {den} too close to 0 or infinity")
    return num / den


def _log(value: complex) -> complex:
    if value == 0 or not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise SingularDenominator(f"log of {value}")
    return cmath.log(value)


def _norms(fval: np.ndarray) -> Tuple[float, float]:
    """2-norm and max-norm of a residual vector, from one pass.

    A NaN entry makes the max-norm NaN, as numpy's reductions would.
    """
    total = worst = 0.0
    for entry in fval.tolist():
        size = abs(entry)
        total += size * size
        if size > worst or size != size:
            worst = size
    return math.sqrt(total), worst


def solve_damped(
    fun: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    z0: Sequence[complex],
    *,
    tol: float = 1e-13,
    contract: bool = False,
) -> np.ndarray:
    """Newton with Armijo backtracking; returns the root vector.

    jac(z) is the Jacobian of fun at z.  A real z0 gives a float
    iterate, for residual functions and Jacobians that are real-valued
    on real input; a complex z0 gives a complex one.  The iteration
    stops after _MAX_ITER steps.  With `contract`, an accepted iterate
    that misses tol without at least halving the residual 2-norm
    raises NoConvergence at once.
    """
    z = np.array(z0, dtype=complex if np.iscomplexobj(z0) else float)
    if z.size == 0:
        return z
    fval = np.asarray(fun(z))
    norm, worst = _norms(fval)
    best = math.inf
    for _ in range(_MAX_ITER):
        if worst < tol:
            return z
        best = min(best, worst)
        try:
            step = np.linalg.solve(jac(z), -fval)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular Jacobian at |f|={norm:.3e}", best) from exc
        alpha = 1.0
        for _ in range(40):
            trial = z + alpha * step
            ftrial = np.asarray(fun(trial))
            trial_norm, trial_worst = _norms(ftrial)
            if trial_norm <= (1.0 - _ARMIJO * alpha) * norm:
                break
            alpha *= 0.5
        else:
            raise NoConvergence(f"line search stalled at |f|={norm:.3e}", best)
        if contract and trial_worst >= tol and trial_norm > 0.5 * norm:
            raise NoConvergence(f"|f| fell only from {norm:.3e} to {trial_norm:.3e}",
                                min(best, trial_worst))
        z, fval, norm, worst = trial, ftrial, trial_norm, trial_worst
    if worst < tol:
        return z
    raise NoConvergence(f"residual {worst:.3e} after {_MAX_ITER} iterations",
                        min(best, worst))


def continue_path(
    fun_of_t: Callable[[float, np.ndarray], np.ndarray],
    jac_of_t: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    t1: float,
    z0: Sequence[float],
    *,
    tol: float = 1e-13,
    collision_groups: Sequence[Sequence[int]] = (),
) -> np.ndarray:
    """Track the real root z0 of fun_of_t(t0, .) to t1, guarding group collisions.

    jac_of_t(t, z) is the Jacobian of fun_of_t(t, z) in z, both
    real-valued on real input; a complex z0 raises TypeError.  The
    first step covers the whole path and starts Newton from z0; later
    ones start from the secant through the last two roots, scaled to
    the step.  The corrector runs while each accepted Newton iterate at
    least halves the residual 2-norm (solve_damped's `contract`); a
    step whose corrector stops contracting short of tol is halved, down
    to _STEP_FLOOR of the path, and an accepted one doubles the next.
    A path whose whole-path corrector contracts thus costs one solve.
    Roots of a group closer than 2 sqrt(tol), or swapping order between
    accepted points, raise PathCollision.  Near a double root the
    residual grows like the square of the distance and Newton only
    halves it, so a corrector stopping at tol leaves two meeting roots
    up to 2 sqrt(tol) apart (unit curvature).
    """
    if np.iscomplexobj(z0):
        raise TypeError("continue_path tracks real roots; the start is complex")
    z = np.array(z0, dtype=float)
    if not abs(t1 - t0) > 0.0:
        raise ValueError(f"path from t0={t0} to t1={t1} has no direction")
    pairs = [p for group in collision_groups for p in itertools.combinations(group, 2)]
    collision = 2.0 * math.sqrt(tol)
    # Steps are taken in the path fraction s, so that each accepted one
    # moves s by at least _STEP_FLOOR even where t itself cannot move.
    s, h, prev = 0.0, 1.0, None
    while s < 1.0:
        s_next = min(1.0, s + h)
        t_next = t1 if s_next == 1.0 else t0 + s_next * (t1 - t0)
        guess = z if prev is None else z + (z - prev[1]) * ((s_next - s) / (s - prev[0]))
        try:
            z_next = solve_damped(partial(fun_of_t, t_next), partial(jac_of_t, t_next),
                                  guess, tol=tol, contract=True)
        except NoConvergence as exc:
            h = 0.5 * (s_next - s)
            if h < _STEP_FLOOR:
                raise NoConvergence(f"step floor reached at t={t_next}: {exc}",
                                    exc.residual) from exc
            continue
        for a, b in pairs:
            if abs(z_next[a] - z_next[b]) < collision:
                raise PathCollision(f"roots {a} and {b} collided at t={t_next}")
            if (z_next[a] - z_next[b]) * (z[a] - z[b]) < 0.0:
                raise PathCollision(f"roots {a} and {b} swapped order before t={t_next}")
        h = 2.0 * (s_next - s)
        prev, s, z = (s, z), s_next, z_next
    return z


def bisect_real(fun: Callable[[float], float], lo: float, hi: float) -> float:
    """Plain bisection for a bracketed real root."""
    flo, fhi = fun(lo), fun(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError("root not bracketed")
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fmid = fun(mid)
        if fmid == 0.0 or hi - lo < _BISECT_TOL * max(1.0, abs(mid)):
            return mid
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
