"""Damped Newton iteration and one-parameter continuation.

Solvers here work on vector residual functions, real or complex, and
every caller supplies the Jacobian in closed form alongside the
residual; nothing here takes finite differences.  Damping is Armijo
backtracking on the residual 2-norm.
"""

from __future__ import annotations

import cmath
import math
from functools import partial
from typing import Callable, Iterable, Sequence, Tuple

import numpy as np

_ARMIJO = 1e-4
_BISECT_TOL = 1e-14
_BISECT_MAX_ITER = 200


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
    guard = 1e-13 * (1.0 + abs(num) + abs(den))
    if abs(den) < guard or abs(num) < guard:
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
    max_iter: int = 60,
    real: bool = False,
) -> np.ndarray:
    """Newton with Armijo backtracking; returns the root vector.

    jac(z) is the Jacobian of fun at z.  With real=True the iterate is a
    float array, for residual functions and Jacobians that are
    real-valued on real input.
    """
    z = np.asarray(z0, dtype=float if real else complex).copy()
    if z.size == 0:
        return z
    fval = np.asarray(fun(z))
    norm, worst = _norms(fval)
    best = math.inf
    for _ in range(max_iter):
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
                z, fval, norm, worst = trial, ftrial, trial_norm, trial_worst
                break
            alpha *= 0.5
        else:
            raise NoConvergence(f"line search stalled at |f|={norm:.3e}", best)
    if worst < tol:
        return z
    raise NoConvergence(f"residual {worst:.3e} after {max_iter} iterations",
                        min(best, worst))


def continue_path(
    fun_of_t: Callable[[float, np.ndarray], np.ndarray],
    jac_of_t: Callable[[float, np.ndarray], np.ndarray],
    ts: Iterable[float],
    z0: Sequence[complex],
    *,
    collision_groups: Sequence[Sequence[int]] = (),
    collision_tol: float = 1e-9,
    **newton_kwargs,
) -> np.ndarray:
    """Track a root along parameter values ts, guarding group collisions.

    jac_of_t(t, z) is the Jacobian of fun_of_t(t, z) in z.  z0 is the
    root one step before ts[0], and the steps are taken as equal: every
    step after the first starts Newton from the secant prediction
    2 z_k - z_{k-1} of the last two roots.
    """
    z = np.asarray(z0, dtype=complex if not newton_kwargs.get("real") else float).copy()
    prev = None
    for t in ts:
        guess = z if prev is None else 2.0 * z - prev
        prev = z
        z = solve_damped(partial(fun_of_t, t), partial(jac_of_t, t), guess,
                         **newton_kwargs)
        for group in collision_groups:
            idx = list(group)
            for a in range(len(idx)):
                for b in range(a + 1, len(idx)):
                    if abs(z[idx[a]] - z[idx[b]]) < collision_tol:
                        raise PathCollision(
                            f"roots {idx[a]} and {idx[b]} collided at t={t}")
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
