"""Zhukovsky kinematics and the numeric source-function layer.

The spectral parameter u and the Zhukovsky variable x are related by
x + 1/x = 2u/h.  The outer sheet carries |x| >= 1 with a short cut on
(-h, h); the inner sheet is its reciprocal, so the functions of x here
take raw outer-sheet x and reach the inner sheet as 1/x.  The source
function F is the single-valued function of x built from root data,
with F(x) F(1/x) = 1.  The module also holds the massive-tower kernels
shared with `ads3` and the truncated product f_N, whose telescoped
ratio is exact at any truncation order.  Everything here is floating
point; exact statements live in the polynomial modules.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

# Absolute bound on shell_gap for every massive or inhomogeneity pair.
SHELL_TOL = 1e-9


class OnCut(ValueError):
    """Evaluation requested on the open cut (-h, h)."""


def check_coupling(coupling: float) -> None:
    """Raise ValueError unless 0 < coupling < inf (NaN included)."""
    if not 0 < coupling < math.inf:
        raise ValueError(f"coupling must be finite and positive, got {coupling}")


def x_of_u(u: complex, hcoup: float) -> complex:
    """Outer-sheet Zhukovsky map u -> x.

    The branch is (u + sqrt(u-h)*sqrt(u+h))/h with principal square
    roots, which places the short cut on (-h, h) and satisfies |x| >= 1
    off the cut.  Real u strictly inside the cut raises OnCut.
    """
    check_coupling(hcoup)
    u = complex(u)
    h = float(hcoup)
    if u.imag == 0.0 and abs(u.real) < h:
        raise OnCut(f"u={u.real} lies on the open cut (-{h}, {h})")
    return (u + cmath.sqrt(u - h) * cmath.sqrt(u + h)) / h


def u_of_x(x: complex, hcoup: float) -> complex:
    """Inverse Zhukovsky map, u = h*(x + 1/x)/2 (sheet independent)."""
    return hcoup * (x + 1.0 / x) / 2.0


def shell_gap(hcoup: float, xplus: complex, xminus: complex) -> float:
    """|x+ + 1/x+ - x- - 1/x- - 2i/h|, zero on the shell u(x+) - u(x-) = i.

    A zero root sits at u = infinity, infinitely far from the shell.
    """
    if not xplus or not xminus:
        return math.inf
    return abs(xplus + 1.0 / xplus - xminus - 1.0 / xminus - 2j / hcoup)


def json_number(value) -> float:
    """A JSON number as a float; TypeError for a boolean, string or other value."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a JSON number, got {value!r}")
    return float(value)


def finite_roots(values) -> Tuple[complex, ...]:
    """The roots as complex numbers; ValueError if one is NaN or infinite."""
    roots = tuple(complex(v) for v in values)
    for z in roots:
        if not cmath.isfinite(z):
            raise ValueError(f"roots must be finite, got {z}")
    return roots


@dataclass(frozen=True)
class SourceF:
    """The source function of root data {y_k^+, y_k^-}:

        F(x) = prod_k sqrt((x - y+)(1/x - y-) / ((x - y-)(1/x - y+))),

    so F(x) F(1/x) = 1, and no pairs give F = 1.  Every root is finite
    with |y| > 1 and every pair meets the shift constraint
    y+ + 1/y+ - y- - 1/y- = 2i/h to within SHELL_TOL.  hcoup is carried
    along so that u-space evaluation is self-contained.
    """

    hcoup: float
    yplus: Tuple[complex, ...] = ()
    yminus: Tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "hcoup", float(self.hcoup))
        check_coupling(self.hcoup)
        object.__setattr__(self, "yplus", finite_roots(self.yplus))
        object.__setattr__(self, "yminus", finite_roots(self.yminus))
        if len(self.yplus) != len(self.yminus):
            raise ValueError("yplus and yminus must pair up")
        for p, m in zip(self.yplus, self.yminus):
            if abs(p) <= 1.0 or abs(m) <= 1.0:
                raise ValueError("source roots must satisfy |y| > 1")
            gap = shell_gap(self.hcoup, p, m)
            if gap > SHELL_TOL:
                raise ValueError(f"pair ({p}, {m}) violates the shift constraint by {gap:.3e}")

    def eval_x(self, x: complex) -> complex:
        """Value of F at a raw Zhukovsky point x."""
        out = 1.0 + 0j
        for yp, ym in zip(self.yplus, self.yminus):
            out *= cmath.sqrt(((x - yp) * (1.0 / x - ym)) / ((x - ym) * (1.0 / x - yp)))
        return out

    def __call__(self, u: complex) -> complex:
        return self.eval_x(x_of_u(u, self.hcoup))


def shell_pair(hcoup: float, v: float) -> Tuple[complex, complex]:
    """Outer-sheet pair (y+, y-) = (x(v + i/2), x(v - i/2)).

    Satisfies the shift constraint exactly by construction and |y| > 1
    for real v away from the cut-collision window.
    """
    return (x_of_u(v + 0.5j, hcoup), x_of_u(v - 0.5j, hcoup))


def shell_pairs(hcoup: float, vs: Sequence[float]) -> Tuple[Tuple[complex, ...], Tuple[complex, ...]]:
    ys = [shell_pair(hcoup, v) for v in vs]
    return tuple(p for p, _ in ys), tuple(m for _, m in ys)


def u_rapidity(hcoup: float, xplus: complex) -> complex:
    """Massive rapidity u = h (x+ + 1/x+) / 2 - i/2."""
    return 0.5 * hcoup * (xplus + 1.0 / xplus) - 0.5j


def aux_r(x: complex, plain: Sequence[complex], barred: Sequence[complex]) -> complex:
    """R-type auxiliary product: (x - y) factors, then (1/x - ybar).

    The loop order (plain factors first) makes the continuation
    identity with aux_b bitwise at points where 1/(1/x) is exact.
    """
    acc = 1.0 + 0.0j
    for y in plain:
        acc *= x - y
    for y in barred:
        acc *= 1.0 / x - y
    return acc


def aux_b(x: complex, plain: Sequence[complex], barred: Sequence[complex]) -> complex:
    """B-type auxiliary product, the sheet swap of aux_r."""
    acc = 1.0 + 0.0j
    for y in plain:
        acc *= 1.0 / x - y
    for y in barred:
        acc *= x - y
    return acc


class MassiveTower:
    """B, R and QQ builders for one tower of m massive pairs (x+, x-).

    B_+(x) = c_+ prod (1/x - x-) and R_+(x) = c_+ prod (x - x-), with c_+
    one principal square root of prod h/(2 x-), which keeps W aligned
    with the auxiliary Bethe equations; the minus branch runs over x+.
    qq(u) = prod (u - u_k), so (-1)^m B_+-(x) R_+-(x) = qq(u(x) +- i/2).
    """

    __slots__ = ("hcoup", "plus", "minus", "cplus", "cminus")

    def __init__(self, hcoup: float, plus: Sequence[complex], minus: Sequence[complex]):
        self.hcoup = hcoup
        self.plus = tuple(plus)
        self.minus = tuple(minus)
        self.cplus, self.cminus = (
            cmath.sqrt(math.prod((0.5 * hcoup / x for x in roots), start=1.0 + 0.0j))
            for roots in (self.minus, self.plus))

    def b(self, branch: int, x: complex) -> complex:
        roots = self.minus if branch > 0 else self.plus
        acc = self.cplus if branch > 0 else self.cminus
        for r in roots:
            acc *= 1.0 / x - r
        return acc

    def r(self, branch: int, x: complex) -> complex:
        roots = self.minus if branch > 0 else self.plus
        acc = self.cplus if branch > 0 else self.cminus
        for r in roots:
            acc *= x - r
        return acc

    def qq(self, u: complex) -> complex:
        acc = 1.0 + 0.0j
        for plus in self.plus:
            acc *= u - u_rapidity(self.hcoup, plus)
        return acc


def w_combination(left: MassiveTower, right: MassiveTower, x: complex) -> complex:
    """The fermionic duality combination W = R+ Bbar- - R- Bbar+."""
    return left.r(+1, x) * right.b(-1, x) - left.r(-1, x) * right.b(+1, x)


def truncated_f(source: Callable[[complex], complex], n_trunc: int,
                u: complex) -> complex:
    """f_N(u) = prod_{n=0..N} F(x(u + i n)).

    Telescoping gives the exact finite-order identity
    f_N(u)/f_N(u + i) = F(x(u)) / F(x(u + i(N+1))).  Any function of u
    may stand in for the source F.
    """
    out = 1.0 + 0j
    for n in range(n_trunc + 1):
        out *= source(u + 1j * n)
    return out
