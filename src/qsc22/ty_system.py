"""Transfer-matrix families on the (a, s) hook and their bilinear checks.

T functions are built from a Q system as two-term shifted Wronskians.
They live on the hook {s in [0,2], a >= 0} union {a in [0,2], s >= 0}
and vanish identically outside it (and for negative indices).  On that
domain they satisfy the discrete bilinear equation

    T_{a,s}^+ T_{a,s}^- = T_{a,s+1} T_{a,s-1} + T_{a+1,s} T_{a-1,s}

at every cell except (0,0), where both right-hand products vanish by
the boundary conventions while the left side does not; `check_hirota`
therefore skips exactly that cell.  All checks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from . import qsystem
from .exact_poly import GaussRat, TwistedPoly, signed_sum
from .qsystem import SLOTS, QSystem, generate_from_seed


class DegenerateTwist(ValueError):
    """Twist parameters collide; the constant solution degenerates."""


def in_hook(a: int, s: int) -> bool:
    return a >= 0 and s >= 0 and not (a >= 3 and s >= 3)


def t_function(q: QSystem, a: int, s: int) -> TwistedPoly:
    """T_{a,s} from the Q system; zero outside the hook."""
    if not in_hook(a, s):
        return TwistedPoly.zero()

    def S(slot: str, k: int) -> TwistedPoly:
        return q[slot].shift(k)

    def sgn(n: int) -> int:
        return 1 if n % 2 == 0 else -1

    if s == 0:
        return sgn(a) * (S("12|12", a) * S("0|0", -a))
    if s == 1 and a >= 1:
        return signed_sum(((-1, S("12|1", a), S("0|2", -a)), (1, S("12|2", a), S("0|1", -a))))
    if s == 2 and a >= 2:
        return sgn(a) * (S("12|0", a) * S("0|12", -a))
    if a == 0:
        return sgn(s) * (S("0|0", s) * S("12|12", -s))
    if a == 1:
        return signed_sum(((sgn(s + 1), S("1|0", s), S("2|12", -s)),
                           (sgn(s), S("2|0", s), S("1|12", -s))))
    return sgn(s) * (S("12|0", s) * S("0|12", -s))


@dataclass(frozen=True)
class THook:
    """T values on a rectangular window (A, S) of the hook lattice:
    one entry per cell (a, s) with 0 <= a <= A and 0 <= s <= S."""

    values: Dict[Tuple[int, int], TwistedPoly]


def wronskian_T(q: QSystem, window: Tuple[int, int] = (4, 4)) -> THook:
    """Tabulate T on the window (zeros outside the hook)."""
    amax, smax = window
    vals = {
        (a, s): t_function(q, a, s)
        for a in range(amax + 1)
        for s in range(smax + 1)
    }
    return THook(vals)


@dataclass(frozen=True)
class HirotaReport:
    ok: bool
    window: Tuple[int, int]
    checked: int
    failures: Tuple[str, ...]
    skipped: Tuple[str, ...]

    def as_json(self) -> dict:
        return {
            "ok": self.ok,
            "window": list(self.window),
            "checked": self.checked,
            "failures": list(self.failures),
            "skipped": list(self.skipped),
        }


def check_hirota(q: QSystem, window: Tuple[int, int] = (4, 4)) -> HirotaReport:
    """Exact bilinear check over the window, skipping (0,0) and the
    out-of-hook cells (which carry no equation)."""
    amax, smax = window
    cache: Dict[Tuple[int, int], TwistedPoly] = {}

    def T(a: int, s: int) -> TwistedPoly:
        if (a, s) not in cache:
            cache[(a, s)] = t_function(q, a, s)
        return cache[(a, s)]

    failures = []
    skipped = []
    checked = 0
    for a in range(amax + 1):
        for s in range(smax + 1):
            if (a, s) == (0, 0) or not in_hook(a, s):
                skipped.append(f"{a},{s}")
                continue
            mid = T(a, s)
            res = signed_sum(((1, mid.shift(1), mid.shift(-1)),
                              (-1, T(a, s + 1), T(a, s - 1)),
                              (-1, T(a + 1, s), T(a - 1, s))))
            checked += 1
            if not res.is_zero:
                failures.append(f"{a},{s}")
    return HirotaReport(
        ok=not failures,
        window=(amax, smax),
        checked=checked,
        failures=tuple(failures),
        skipped=tuple(skipped),
    )


def y_pair(q: QSystem, a: int, s: int) -> Tuple[TwistedPoly, TwistedPoly]:
    """Y_{a,s} as a cleared (numerator, denominator) pair:
    T_{a,s-1} T_{a,s+1} over T_{a-1,s} T_{a+1,s}."""
    num = t_function(q, a, s - 1) * t_function(q, a, s + 1)
    den = t_function(q, a - 1, s) * t_function(q, a + 1, s)
    return num, den


def _const_of(p: TwistedPoly) -> GaussRat:
    if len(p.terms) != 1 or len(p.terms[0][1]) != 1:
        raise ValueError("expected a single-term constant element")
    return p.terms[0][1][0]


def character_solution(sx: GaussRat, sy: GaussRat) -> QSystem:
    """Constant-coefficient pure-twist solution of the full relation set.

    sx and sy are the half-twists: the even twist pair is (sx^2, 1/sx^2)
    and the odd pair (sy^2, 1/sy^2), so everything closes over the exact
    ring.  The system is generated from pure-twist seeds, its QQ
    relations are checked (ArithmeticError if one fails), and slot A|I
    is multiplied by the constant

        Q_{0|0}^(|A|+|I|-1) / (prod_{a in A} Q_{a|0} * prod_{i in I} Q_{0|i})

    read off the generated system.  That is a constant gauge with a
    diagonal H-rotation, so the relations still hold, and it leaves
    0|0 = 1 and coefficient 1 on the pure twists of 1|0, 2|0, 0|1, 0|2.
    Raises DegenerateTwist when a twist collision makes any slot vanish
    (for example sx^4 = 1, sy^4 = 1, or (sx*sy)^2 = (sx/sy)^2).
    """
    sx = GaussRat.coerce(sx)
    sy = GaussRat.coerce(sy)
    if not sx or not sy:
        raise ValueError("half-twists must be nonzero")

    def pure(s: GaussRat) -> TwistedPoly:
        return TwistedPoly.from_coeffs([1], twist=s)

    b0 = TwistedPoly.one()
    bs = (pure(sx), pure(sx.inverse()), pure(sy), pure(sy.inverse()))
    try:
        q = generate_from_seed(b0, bs)
    except ZeroDivisionError as exc:
        raise DegenerateTwist(str(exc)) from exc
    # Looked up on the module, so a patched qsystem.check_qq is the one run.
    report = qsystem.check_qq(q)
    if not report.ok:
        raise ArithmeticError(f"generated system failed QQ: {report.failures}")
    if q.zero_slots():
        raise DegenerateTwist(f"vanishing slots {q.zero_slots()} for sx={sx}, sy={sy}")
    # The scale of A|I is even[A] * odd[I], with
    # even[A] = Q_{0|0}^(|A|-1) / prod Q_{a|0} and odd[I] = Q_{0|0}^|I| / prod Q_{0|i}.
    q00 = _const_of(q["0|0"])
    even = {"0": q00.inverse()}
    odd = {"0": GaussRat.ONE}
    for x in ("1", "2"):
        even[x] = _const_of(q[f"{x}|0"]).inverse()
        odd[x] = q00 * _const_of(q[f"0|{x}"]).inverse()
    even["12"] = q00 * even["1"] * even["2"]
    odd["12"] = odd["1"] * odd["2"]
    out = {}
    for slot in SLOTS:
        a, i = slot.split("|")
        out[slot] = odd[i] * (even[a] * q[slot])
    return QSystem(out)
