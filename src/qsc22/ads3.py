"""Asymptotic machinery for the massive sector of the AdS3 x S3 x T4 string.

Two coupled towers of Bethe roots enter: left massive pairs x_j^+-,
right massive pairs xbar_j^+-, and four families of auxiliary roots
y1, y3, y1bar, y3bar.  This module evaluates the six Bethe equation
families in log form with pluggable dressing phases, builds the
asymptotic Q-function evaluators out of the B, R and truncated f
products, extracts dual auxiliary roots from the fermionic duality
combination W = R+ Bbar- - R- Bbar+, and compares a caller-supplied
dressing model with the double-crossing factor of the roots.  No
dressing phase ships here: the one statement the crossing check makes
today is that the constant model, which returns to itself after two
crossings, misses the factor.

The B, R and QQ factors of a massive tower (`MassiveTower`), the
auxiliary products and W itself live in `analytic_layer`.  The
zero-momentum condition is reported, not enforced: single-pair
configurations used by the momentum-shell oracle violate it by
construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ._newton import NoConvergence, _log, _ratio, bisect_real, solve_damped
from .analytic_layer import (SHELL_TOL, MassiveTower,
                             aux_b, aux_r, check_coupling, finite_roots, json_number,
                             shell_gap, shell_pair, truncated_f, u_rapidity,
                             w_combination, x_of_u)

__all__ = [
    "ShellViolation", "AdS3Roots", "DressingModel",
    "aux_r", "aux_b", "u_rapidity", "momentum_defect",
    "aba_residuals", "solve_single", "solve_two_particle",
    "solve_with_auxiliary", "dual_auxiliary_roots", "DualityReport",
    "AsymptoticQ", "weight_exponents",
    "CrossingReport", "crossing_structure_check",
]

_AUX_TOL = 1e-12
_AUX_Y_SPAN = 12.0
_CROSSING_U = 0.4 + 0.7j
_CROSSING_TOL = 1e-8
# Upper end of the rapidity grid that brackets a shell root.
_SHELL_VMAX = 80.0


class ShellViolation(ValueError):
    """A massive root pair breaks the shell or modulus condition."""


@dataclass(frozen=True)
class AdS3Roots:
    """Root content of one asymptotic state.

    The coupling must be finite and positive, the volume at least 1,
    every root finite and no auxiliary root at 0, which is u = infinity.
    Shell conditions (|x| > 1 and the i-shift pairing) are enforced on
    both massive towers.  The zero-momentum product is deliberately not
    enforced: the single-pair shell oracle needs it violated, so it is
    exposed through momentum_defect instead.
    """

    hcoup: float
    volume: int
    xp: Tuple[complex, ...] = ()
    xm: Tuple[complex, ...] = ()
    xbp: Tuple[complex, ...] = ()
    xbm: Tuple[complex, ...] = ()
    y1: Tuple[complex, ...] = ()
    y3: Tuple[complex, ...] = ()
    y1b: Tuple[complex, ...] = ()
    y3b: Tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        check_coupling(self.hcoup)
        if self.volume < 1:
            raise ValueError(f"volume must be at least 1, got {self.volume}")
        for name in ("xp", "xm", "xbp", "xbm", "y1", "y3", "y1b", "y3b"):
            object.__setattr__(self, name, finite_roots(getattr(self, name)))
        if 0 in self.y1 + self.y3 + self.y1b + self.y3b:
            raise ValueError("an auxiliary root at 0 sits at u = infinity")
        if len(self.xp) != len(self.xm) or len(self.xbp) != len(self.xbm):
            raise ShellViolation("massive towers need matching +/- counts")
        for plus, minus in zip(self.xp + self.xbp, self.xm + self.xbm):
            if abs(plus) <= 1.0 or abs(minus) <= 1.0:
                raise ShellViolation(f"massive root ({plus}, {minus}) inside unit circle")
            if shell_gap(self.hcoup, plus, minus) > SHELL_TOL:
                raise ShellViolation(f"pair ({plus}, {minus}) off the shell")

    def as_json(self) -> dict:
        def enc(vals):
            return [[v.real, v.imag] for v in vals]
        return {"hcoup": self.hcoup, "L": self.volume,
                "xp": enc(self.xp), "xm": enc(self.xm),
                "xbp": enc(self.xbp), "xbm": enc(self.xbm),
                "y1": enc(self.y1), "y3": enc(self.y3),
                "y1b": enc(self.y1b), "y3b": enc(self.y3b)}

    @classmethod
    def from_json(cls, data: dict) -> "AdS3Roots":
        def dec(vals):
            return tuple(complex(json_number(re), json_number(im)) for re, im in vals)
        if type(data["L"]) is not int:
            raise ValueError(f"volume L must be a JSON integer, got {data['L']!r}")
        return cls(json_number(data["hcoup"]), data["L"],
                   *(dec(data.get(key, ())) for key in
                     ("xp", "xm", "xbp", "xbm", "y1", "y3", "y1b", "y3b")))


def _one(pair_a, pair_b) -> complex:
    return 1.0 + 0.0j


@dataclass(frozen=True)
class DressingModel:
    """Dressing phase callbacks on pairs of massive root pairs.

    Each callback receives ((x_k^+, x_k^-), (x_j^+, x_j^-)) and returns
    the phase value itself (the equations square it).  The default is
    the constant model 1, which tests the rational skeleton.
    """

    sigma: Callable[[Tuple[complex, complex], Tuple[complex, complex]], complex] = _one
    sigma_hat: Callable[[Tuple[complex, complex], Tuple[complex, complex]], complex] = _one


def momentum_defect(data: AdS3Roots) -> complex:
    """Deviation of the total momentum product from 1."""
    prod = 1.0 + 0.0j
    for plus, minus in zip(data.xp + data.xbp, data.xm + data.xbm):
        prod *= plus / minus
    return prod - 1.0


def aba_residuals(data: AdS3Roots, phases: Optional[DressingModel] = None) -> np.ndarray:
    """Log residuals of the six Bethe families at every root.

    Order: y1 auxiliaries, y3, y1bar, y3bar, left momentum equations,
    right momentum equations.
    """
    ph = phases if phases is not None else DressingModel()
    res = []
    for family in (data.y1, data.y3):
        for y in family:
            prod = 1.0 + 0.0j
            for plus, minus in zip(data.xp, data.xm):
                prod *= _ratio(y - minus, y - plus)
            for plus, minus in zip(data.xbp, data.xbm):
                prod *= _ratio(1.0 - 1.0 / (y * plus), 1.0 - 1.0 / (y * minus))
            res.append(_log(prod))
    for family in (data.y1b, data.y3b):
        for y in family:
            prod = 1.0 + 0.0j
            for plus, minus in zip(data.xbp, data.xbm):
                prod *= _ratio(y - plus, y - minus)
            for plus, minus in zip(data.xp, data.xm):
                prod *= _ratio(1.0 - 1.0 / (y * minus), 1.0 - 1.0 / (y * plus))
            res.append(_log(prod))
    us = [u_rapidity(data.hcoup, plus) for plus in data.xp]
    ubs = [u_rapidity(data.hcoup, plus) for plus in data.xbp]
    for k, (plus, minus) in enumerate(zip(data.xp, data.xm)):
        prod = (minus / plus) ** data.volume
        for j, (pj, mj) in enumerate(zip(data.xp, data.xm)):
            if j == k:
                continue
            prod *= _ratio(us[k] - us[j] + 1j, us[k] - us[j] - 1j)
            prod *= ph.sigma((plus, minus), (pj, mj)) ** 2
        for pj, mj in zip(data.xbp, data.xbm):
            prod *= _ratio(1.0 - 1.0 / (plus * pj), 1.0 - 1.0 / (minus * mj))
            prod *= _ratio(1.0 - 1.0 / (plus * mj), 1.0 - 1.0 / (minus * pj))
            prod *= ph.sigma_hat((plus, minus), (pj, mj)) ** 2
        for y in data.y1 + data.y3:
            prod *= _ratio(minus - y, plus - y)
        for y in data.y1b + data.y3b:
            prod *= _ratio(1.0 - 1.0 / (minus * y), 1.0 - 1.0 / (plus * y))
        res.append(_log(prod))
    for k, (plus, minus) in enumerate(zip(data.xbp, data.xbm)):
        prod = (minus / plus) ** data.volume
        for j, (pj, mj) in enumerate(zip(data.xbp, data.xbm)):
            if j == k:
                continue
            prod *= _ratio(minus - pj, plus - mj)
            prod *= _ratio(1.0 - 1.0 / (plus * mj), 1.0 - 1.0 / (minus * pj))
            prod *= ph.sigma((plus, minus), (pj, mj)) ** 2
        for pj, mj in zip(data.xp, data.xm):
            prod *= _ratio(1.0 - 1.0 / (minus * mj), 1.0 - 1.0 / (minus * pj))
            prod *= _ratio(1.0 - 1.0 / (plus * mj), 1.0 - 1.0 / (plus * pj))
            prod *= ph.sigma_hat((plus, minus), (pj, mj)) ** 2
        for y in data.y1b + data.y3b:
            prod *= _ratio(plus - y, minus - y)
        for y in data.y1 + data.y3:
            prod *= _ratio(1.0 - 1.0 / (plus * y), 1.0 - 1.0 / (minus * y))
        res.append(_log(prod))
    return np.array(res, dtype=complex)


def _shell_root(hcoup: float, gap: Callable[[float], float],
                failure: str) -> Tuple[complex, complex]:
    """Shell pair at the first sign change of gap on a log grid in v."""
    vs = np.geomspace(1e-3, _SHELL_VMAX, 400)
    vals = [gap(v) for v in vs]
    for i in range(len(vs) - 1):
        if vals[i] * vals[i + 1] < 0:
            return shell_pair(hcoup, bisect_real(gap, float(vs[i]), float(vs[i + 1])))
    raise NoConvergence(failure)


def solve_single(hcoup: float, volume: int, winding: int = 1) -> AdS3Roots:
    """One left pair on the momentum shell: (x+/x-)^L = 1.

    The winding selects which quantized momentum is taken; the root is
    found by bisection in the real rapidity.  A real rapidity has
    momentum p < pi, so L p = 2 pi winding has no root when 2 winding >= L;
    ValueError is raised then, and for winding < 1.
    """
    if not 1 <= winding < volume / 2:
        raise ValueError(f"no single-pair state for winding {winding} at L={volume}: "
                         f"need winding >= 1, and L*p < L*pi needs 2*winding < L")

    def gap(v: float) -> float:
        plus, minus = shell_pair(hcoup, v)
        return volume * cmath.log(plus / minus).imag - 2.0 * math.pi * winding

    plus, minus = _shell_root(
        hcoup, gap, f"no shell root for winding {winding} up to v={_SHELL_VMAX}")
    return AdS3Roots(hcoup, volume, xp=(plus,), xm=(minus,))


def solve_two_particle(hcoup: float, volume: int, winding: int = 1) -> AdS3Roots:
    """Symmetric two-particle state x2^+- = -x1^-+ with zero momentum.

    The symmetry makes the second momentum equation and the total
    momentum condition hold identically, leaving one real equation.
    ValueError for L < 1 or winding < 1.
    """
    if volume < 1 or winding < 1:
        raise ValueError(f"need L >= 1 and winding >= 1, got L={volume}, winding={winding}")

    def gap(v: float) -> float:
        plus, minus = shell_pair(hcoup, v)
        val = volume * cmath.log(plus / minus).imag \
            - cmath.log((2 * v + 1j) / (2 * v - 1j)).imag
        return val - 2.0 * math.pi * winding

    plus, minus = _shell_root(hcoup, gap, f"no two-particle root for winding {winding}")
    return AdS3Roots(hcoup, volume, xp=(plus, -minus), xm=(minus, -plus))


def _symmetric_state(hcoup: float, volume: int, v1: float, v2: float,
                     y: float) -> AdS3Roots:
    p1, m1 = shell_pair(hcoup, v1)
    p2, m2 = shell_pair(hcoup, v2)
    return AdS3Roots(hcoup, volume,
                     xp=(p1, -m1, p2, -m2), xm=(m1, -p1, m2, -p2),
                     y1=(y, -y))


def _aux_residuals(hcoup: float, volume: int, z: np.ndarray) -> np.ndarray:
    """Phases of the y, first-pair and second-pair equations of the
    mirror-symmetric state at z = (v1, v2, y)."""
    state = _symmetric_state(hcoup, volume, float(z[0]), float(z[1]), float(z[2]))
    res = aba_residuals(state)
    return np.array([res[0].imag, res[2].imag, res[4].imag])


def _aux_jacobian(hcoup: float, volume: int, z: np.ndarray) -> np.ndarray:
    """Jacobian of _aux_residuals in (v1, v2, y).

    Each residual is the phase of a product of ratios, so its
    derivative is the imaginary part of a sum of log-derivatives.  The
    roots move with v through dx/dv = 2 / (h (1 - 1/x^2)); the massive
    rapidities of (p1, -m1, p2, -m2) are (v1, -v1, v2, -v2).
    """
    v1, v2, y = (float(c) for c in z)
    state = _symmetric_state(hcoup, volume, v1, v2, y)
    xp, xm = np.array(state.xp), np.array(state.xm)
    dxdv = [2.0 / (hcoup * (1.0 - 1.0 / (x * x)))
            for x in (xp[0], xm[0], xp[2], xm[2])]
    # Derivatives of each root in (v1, v2, y), one row per root.
    dxp = np.array([[dxdv[0], 0, 0], [-dxdv[1], 0, 0],
                    [0, dxdv[2], 0], [0, -dxdv[3], 0]], dtype=complex)
    dxm = np.array([[dxdv[1], 0, 0], [-dxdv[0], 0, 0],
                    [0, dxdv[3], 0], [0, -dxdv[2], 0]], dtype=complex)
    us = np.array([v1, -v1, v2, -v2])
    dus = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]])
    ys = np.array([y, -y])
    dys = np.array([[0, 0, 1.0], [0, 0, -1.0]])

    aux = sum((dys[0] - dxm[k]) / (ys[0] - xm[k])
              - (dys[0] - dxp[k]) / (ys[0] - xp[k]) for k in range(4))
    rows = [aux]
    for k in (0, 2):
        row = volume * (dxm[k] / xm[k] - dxp[k] / xp[k])
        for j in range(4):
            if j != k:
                diff = us[k] - us[j]
                row = row + (dus[k] - dus[j]) * (1.0 / (diff + 1j) - 1.0 / (diff - 1j))
        for yl, dyl in zip(ys, dys):
            row = row + (dxm[k] - dyl) / (xm[k] - yl) - (dxp[k] - dyl) / (xp[k] - yl)
        rows.append(row)
    return np.array(rows).imag


def solve_with_auxiliary(hcoup: float, volume: int,
                         seed: Tuple[float, float]) -> AdS3Roots:
    """Four mirror-symmetric left pairs with an auxiliary pair {y, -y}.

    The rapidity mirror v -> -v keeps the total momentum at exactly 1
    along the whole Newton path, and it maps the two auxiliary Bethe
    equations into each other, so three real unknowns (two rapidities
    and one auxiliary root) close the system.  Candidate y seeds come
    from bracketing the auxiliary equation at the seed rapidities.
    """
    v1s, v2s = float(seed[0]), float(seed[1])
    # Any nonzero y fills the auxiliary slot; only the massive roots are read.
    xp_seed = _symmetric_state(hcoup, volume, v1s, v2s, 1.0).xp

    def aux_phase(y: float) -> float:
        return sum(np.angle(y - x) for x in xp_seed) + math.pi

    y0 = bisect_real(aux_phase, 1e-4, _AUX_Y_SPAN)
    z = solve_damped(partial(_aux_residuals, hcoup, volume),
                     partial(_aux_jacobian, hcoup, volume),
                     np.array([v1s, v2s, y0]), tol=_AUX_TOL)
    state = _symmetric_state(hcoup, volume, float(z[0]), float(z[1]),
                             float(z[2]))
    worst = float(np.max(np.abs(aba_residuals(state))))
    if worst > 1e-10 or abs(state.y1[0]) < 1e-6:
        raise NoConvergence(f"degenerate auxiliary configuration ({worst:.2e})")
    return state


@dataclass(frozen=True)
class DualityReport:
    """Constant-ratio check of the fermionic duality combination."""

    ratio_mean: complex
    ratio_rel_std: float
    given_root_gap: float
    trivial: bool


def dual_auxiliary_roots(data: AdS3Roots):
    """Dual auxiliary roots from the zeros of W = R+ Bbar- - R- Bbar+.

    Returns ((y1t, y1bt), (y3t, y3bt)).  Zeros matching the given
    auxiliary roots (y as such, barred y as 1/y) are removed for the
    y1 family; the y3 family is treated symmetrically.  Remaining zeros
    inside the unit circle are reported as barred duals 1/z, capped at
    the count the barred massive tower supports.
    """
    m2, m2b = len(data.xp), len(data.xbp)
    if m2 + m2b == 0:
        return ((), ()), ((), ())
    left = MassiveTower(data.hcoup, data.xp, data.xm)
    right = MassiveTower(data.hcoup, data.xbp, data.xbm)
    deg = m2 + m2b
    nodes = [1.9 * cmath.exp(2j * math.pi * s / (deg + 1) + 0.173j)
             for s in range(deg + 1)]
    vander = np.array([[node ** (deg - t) for t in range(deg + 1)] for node in nodes])
    values = np.array([node ** m2b * w_combination(left, right, node)
                       for node in nodes])
    coeffs = np.linalg.solve(vander, values)
    scale = float(np.max(np.abs(coeffs)))
    lead = 0
    while lead < len(coeffs) - 1 and abs(coeffs[lead]) < 1e-10 * scale:
        lead += 1
    zeros = list(np.roots(coeffs[lead:])) if len(coeffs) - lead > 1 else []

    def extract(plain_given, barred_given):
        pool = list(zeros)
        for target in list(plain_given) + [1.0 / y for y in barred_given]:
            if not pool:
                raise ShellViolation("more auxiliary roots than duality zeros")
            best = min(range(len(pool)), key=lambda i: abs(pool[i] - target))
            pool.pop(best)
        cap = max(0, m2b - len(barred_given))
        inside = sorted((z for z in pool if abs(z) < 1.0), key=abs)[:cap]
        plain = [z for z in pool if all(z is not w for w in inside)]
        key = lambda z: (round(z.real, 12), round(z.imag, 12))
        return (tuple(sorted(plain, key=key)),
                tuple(sorted((1.0 / z for z in inside), key=key)))

    return extract(data.y1, data.y1b), extract(data.y3, data.y3b)


class AsymptoticQ:
    """Evaluator bundle for the displayed asymptotic Q-functions.

    Overall constants are fixed to 1 and dressing phases to the
    constant model, so every meaningful statement is a ratio or a
    residual.  Labels: "1|1", "12|12", "1|0", "1|12", "0|1", "12|1"
    and "0|0"; bar=True selects the right tower, which mirrors the
    left one with barred ingredients and B-type auxiliary products.
    """

    def __init__(self, data: AdS3Roots, n_trunc: int = 16):
        self.data = data
        self.n_trunc = int(n_trunc)
        self._left = MassiveTower(data.hcoup, data.xp, data.xm)
        self._right = MassiveTower(data.hcoup, data.xbp, data.xbm)
        (self.y1_tilde, self.y1b_tilde), (self.y3_tilde, self.y3b_tilde) = \
            dual_auxiliary_roots(data)
        self.duality = self._duality_report()

    def _x(self, u: complex) -> complex:
        return x_of_u(u, self.data.hcoup)

    def _g(self, tower: MassiveTower, u: complex) -> complex:
        x = self._x(u)
        return tower.b(+1, x) / tower.b(-1, x)

    def f(self, u: complex) -> complex:
        return truncated_f(partial(self._g, self._left), self.n_trunc, u)

    def fbar(self, u: complex) -> complex:
        return truncated_f(partial(self._g, self._right), self.n_trunc, u)

    def q(self, label: str, bar: bool = False) -> Callable[[complex], complex]:
        near, far = (self._right, self._left) if bar else (self._left, self._right)
        aux = aux_b if bar else aux_r
        if bar:
            small1 = (self.data.y1, self.data.y1b)
            small3 = (self.data.y3, self.data.y3b)
            large1 = (self.y1_tilde, self.y1b_tilde)
            large3 = (self.y3_tilde, self.y3b_tilde)
            f_near, f_far = self.fbar, self.f
        else:
            small1 = (self.y1_tilde, self.y1b_tilde)
            small3 = (self.y3_tilde, self.y3b_tilde)
            large1 = (self.data.y1, self.data.y1b)
            large3 = (self.data.y3, self.data.y3b)
            f_near, f_far = self.f, self.fbar
        half = 0.5 * self.data.volume

        if label == "0|0" or label == "12|12":
            return lambda u: 1.0 + 0.0j
        if label == "1|1":
            return lambda u: near.qq(u) * self.f(u + 0.5j) * self.fbar(u + 0.5j)
        if label == "1|0":
            return lambda u: (self._x(u) ** -half) * near.b(-1, self._x(u)) \
                * aux(self._x(u), *small1)
        if label == "1|12":
            return lambda u: (self._x(u) ** -half) * near.b(+1, self._x(u)) \
                * aux(self._x(u), *small3)
        if label == "0|1":
            return lambda u: (self._x(u) ** half) \
                * f_far(u) / far.b(+1, self._x(u)) * f_near(u) \
                * aux(self._x(u), *large1)
        if label == "12|1":
            return lambda u: (self._x(u) ** half) \
                * f_far(u) / far.b(+1, self._x(u)) * f_near(u + 1j) \
                * aux(self._x(u), *large3)
        raise ValueError(f"unknown Q label {label!r}")

    def _duality_report(self) -> DualityReport:
        if not self.data.xp and not self.data.xbp:
            return DualityReport(1.0 + 0.0j, 0.0, 0.0, True)
        xs = [1.37 * cmath.exp(2j * math.pi * s / 10 + 0.21j) for s in range(10)]
        num = [aux_r(x, self.y1_tilde, self.y1b_tilde)
               * aux_r(x, self.data.y1, self.data.y1b) for x in xs]
        den = [aux_r(x, self.data.y3, self.data.y3b)
               * aux_r(x, self.y3_tilde, self.y3b_tilde) for x in xs]
        ratios = np.array([_ratio(n, d) for n, d in zip(num, den)])
        mean = complex(np.mean(ratios))
        rel = float(np.std(ratios) / abs(mean))
        gap = 0.0
        for y in list(self.data.y1) + [1.0 / y for y in self.data.y1b] \
                + list(self.data.y3) + [1.0 / y for y in self.data.y3b]:
            gap = max(gap, abs(w_combination(self._left, self._right, y)))
        return DualityReport(mean, rel, gap, False)


def weight_exponents(charges: Sequence[float]) -> dict:
    """Hatted large-u exponents from the global charges.

    charges = (Delta, S, J, K, M1, M3, M1bar, M3bar); the result maps
    "lamL", "nuL", "lamR", "nuR" to the shifted exponent pairs.
    """
    delta, spin, jq, kq, m1, m3, m1b, m3b = (float(c) for c in charges)
    lam_l = 0.5 * (m1 - m3)
    lam_r = -0.5 * (m1b - m3b)
    lamL = (0.5 * (jq + kq) + lam_l, -0.5 * (jq + kq) + lam_l)
    nuL = (-0.5 * (delta + spin) - lam_l, 0.5 * (delta + spin) - lam_l)
    lamR = (0.5 * (jq - kq) + lam_r, -0.5 * (jq - kq) + lam_r)
    nuR = (-0.5 * (delta - spin) - lam_r, 0.5 * (delta - spin) - lam_r)
    return {
        "lamL": (lamL[0] + 1.0, lamL[1]),
        "nuL": (nuL[0] - 1.0, nuL[1]),
        "lamR": (lamR[0], lamR[1] + 1.0),
        "nuR": (nuR[0], nuR[1] - 1.0),
    }


@dataclass(frozen=True)
class CrossingReport:
    """Double-crossing monodromy comparison."""

    factor: complex
    measured: complex
    rel_gap: float
    passed: bool


def _crossing_factor(data: AdS3Roots, x: complex) -> complex:
    left = MassiveTower(data.hcoup, data.xp, data.xm)
    right = MassiveTower(data.hcoup, data.xbp, data.xbm)
    base = (left.b(-1, x) / left.b(+1, x)) * (right.r(+1, x) / right.r(-1, x))
    return base ** 2


def crossing_structure_check(
        data: AdS3Roots,
        sigma_plus: Callable[[complex, int], complex]) -> CrossingReport:
    """Compare the measured double-crossing ratio with the root factor.

    The factor (B-/B+ * Rbar+/Rbar-)^2 differs from 1 whenever
    massive roots are present, which rules out any model that returns
    to itself after two crossings.
    """
    x = x_of_u(_CROSSING_U, data.hcoup)
    factor = _crossing_factor(data, x)
    measured = sigma_plus(_CROSSING_U, 2) / sigma_plus(_CROSSING_U, 0)
    rel = abs(measured / factor - 1.0)
    return CrossingReport(factor, measured, rel, rel < _CROSSING_TOL)
