"""Wronskian-generated families of sixteen Q functions and their checks.

A system assigns one twisted polynomial to every slot "A|I" where A and
I are subsets of {1,2} ("0" stands for the empty set, so the slots run
"0|0", "1|0", ..., "12|12").  Its defining structure is `_QQ_TABLE`, the
49 bilinear shift relations written once as data: determinant-type
relations among the middle block, two-term Wronskian relations tying
neighbouring blocks together, and the corner completions.  `check_qq`
evaluates the table exactly; a relation holds iff its residual is zero.

`generate_from_seed` builds a full system from five seed functions:
each slot is a signed Casoratian of odd seeds over shifts of the even
one.  It does not check the result; callers that certify a system run
`check_qq` on it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .exact_poly import GaussRat, TwistedPoly, exact_div, signed_sum, wronskian

SLOTS = (
    "0|0", "1|0", "2|0", "12|0",
    "0|1", "0|2", "0|12",
    "1|1", "1|2", "2|1", "2|2",
    "12|1", "12|2", "1|12", "2|12",
    "12|12",
)

# Slot -> (sign, seed subset): the component of the seed expansion
# backing each slot (indices 1,2 are the even directions, 3,4 the odd
# ones), of size |A| + 2 - |I|, and the sign convention.  The signs are
# a frozen convention: they are the unique assignment (up to the
# constant-rotation orbit) under which every relation family below
# holds identically for generated systems, with the corner orientation
# Q_{12|0} Q_{0|0} = -W(Q_{1|0}, Q_{2|0}) of the corner relations.
_COMPONENT = {
    "0|0": (1, (3, 4)), "1|0": (1, (1, 3, 4)), "2|0": (1, (2, 3, 4)),
    "12|0": (-1, (1, 2, 3, 4)),
    "0|1": (-1, (4,)), "0|2": (1, (3,)), "0|12": (-1, ()),
    "1|1": (-1, (1, 4)), "1|2": (1, (1, 3)), "2|1": (-1, (2, 4)), "2|2": (1, (2, 3)),
    "12|1": (-1, (1, 2, 4)), "12|2": (1, (1, 2, 3)),
    "1|12": (1, (1,)), "2|12": (1, (2,)),
    "12|12": (1, (1, 2)),
}

# Dual table: slot -> (sign, source slot), implementing the raising
# Q^{A|I} = (-1)^{|B||I|} eps^{AB} eps^{IJ} Q_{B|J}.  Applying it twice
# gives (-1)^{|A|+|I|} times the identity.
_HODGE = {
    "0|0": (1, "12|12"), "1|0": (1, "2|12"), "2|0": (-1, "1|12"),
    "0|1": (1, "12|2"), "0|2": (-1, "12|1"),
    "1|1": (-1, "2|2"), "1|2": (1, "2|1"), "2|1": (1, "1|2"), "2|2": (-1, "1|1"),
    "12|0": (1, "0|12"), "0|12": (1, "12|0"),
    "12|1": (1, "0|2"), "12|2": (-1, "0|1"),
    "1|12": (1, "2|0"), "2|12": (-1, "1|0"),
    "12|12": (1, "0|0"),
}

# The QQ relation inventory, one row per family in check order.  A row
# names its indices (a, b, i, j over 1, 2; e over the shift signs + and
# -) and, for each relation, a name and its terms "sign factor factor".
# A factor is a slot "A|I", raised through _HODGE when it starts with
# "~" and shifted by +1 or -1 when it ends in "+" or "-".  A term signed
# "δ" enters, with sign +, only where the row's two indices agree.  A
# Wronskian W(f, g) = f+ g- - f- g+ is two terms.
_QQ_TABLE = (
    ("ai", (("nl1[{a}|{i}]", "+ {a}|{i}+ 0|0- - {a}|{i}- 0|0+ - {a}|0 0|{i}"),)),
    ("", (
        ("nl2[even]", "+ ~0|0+ 0|0- - ~0|0- 0|0+ - 1|0 ~1|0 - 2|0 ~2|0"),
        ("nl2[odd]", "+ ~0|0+ 0|0- - ~0|0- 0|0+ - 0|1 ~0|1 - 0|2 ~0|2"),
        ("det", "+ 1|1 2|2 - 1|2 2|1 - 12|12 0|0"),
    )),
    ("ij", (("orth[.|{i}{j}]", "+ 1|{i} ~1|{j} + 2|{i} ~2|{j} δ ~0|0 0|0"),)),
    ("ab", (("orth[{a}{b}|.]", "+ {a}|1 ~{b}|1 + {a}|2 ~{b}|2 δ ~0|0 0|0"),)),
    ("ae", (
        ("l2a[{a},{e}]", "+ {a}|12 0|0{e} - 0|1 {a}|2{e} + 0|2 {a}|1{e}"),
        ("l2a*[{a},{e}]", "+ ~{a}|0 0|0{e} + ~{a}|1{e} 0|1 + ~{a}|2{e} 0|2"),
    )),
    ("ie", (
        ("l2b[{i},{e}]", "+ 12|{i} 0|0{e} - 1|0 2|{i}{e} + 2|0 1|{i}{e}"),
        ("l2b*[{i},{e}]", "+ ~0|{i} 0|0{e} + ~1|{i}{e} 1|0 + ~2|{i}{e} 2|0"),
    )),
    ("ae", (
        ("l2c[{a},{e}]", "+ {a}|0 12|12{e} + 12|1 {a}|2{e} - 12|2 {a}|1{e}"),
        ("l2c*[{a},{e}]", "+ {a}|0 ~0|0{e} - {a}|1{e} ~0|1 - {a}|2{e} ~0|2"),
    )),
    ("ie", (
        ("l2d[{i},{e}]", "+ 0|{i} 12|12{e} + 1|12 2|{i}{e} - 2|12 1|{i}{e}"),
        ("l2d*[{i},{e}]", "+ 0|{i} ~0|0{e} - 1|{i}{e} ~1|0 - 2|{i}{e} ~2|0"),
    )),
    ("", (
        ("corner[12|0]", "+ 12|0 0|0 + 1|0+ 2|0- - 1|0- 2|0+"),
        ("corner[0|12]", "+ 0|12 0|0 + 0|1+ 0|2- - 0|1- 0|2+"),
    )),
)


def _qq_factor(text: str) -> Tuple[bool, str, int]:
    """(raised, slot, shift) of a factor written as in `_QQ_TABLE`."""
    return text[0] == "~", text.strip("~+-"), {"+": 1, "-": -1}.get(text[-1], 0)


def _qq_relations() -> Tuple:
    """`_QQ_TABLE` with its indices substituted: (name, ((sign, f, g), ...))."""
    out = []
    for indices, rows in _QQ_TABLE:
        for values in itertools.product(*("+-" if x == "e" else "12" for x in indices)):
            idx = dict(zip(indices, values))
            for name, text in rows:
                tokens = text.format(**idx).split()
                terms = tuple((-1 if sign == "-" else 1, _qq_factor(f), _qq_factor(g))
                              for sign, f, g in zip(tokens[::3], tokens[1::3], tokens[2::3])
                              if sign != "δ" or len(set(values)) == 1)
                out.append((name.format(**idx), terms))
    return tuple(out)


def _qq_plan() -> Tuple:
    """`_QQ_RELATIONS` with each raised factor read through `_HODGE`:
    the distinct factors as plain (slot, shift) pairs, and each
    relation's terms as (sign, factor index, factor index), the Hodge
    signs folded into the sign."""
    index: Dict[Tuple[str, int], int] = {}

    def lower(raised: bool, slot: str, shift: int) -> Tuple[int, int]:
        sign, src = _HODGE[slot] if raised else (1, slot)
        return sign, index.setdefault((src, shift), len(index))

    def term(sign: int, f, g) -> Tuple[int, int, int]:
        (sf, i), (sg, j) = lower(*f), lower(*g)
        return sign * sf * sg, i, j

    plan = tuple(tuple(term(*t) for t in terms) for _, terms in _QQ_RELATIONS)
    return tuple(index), plan


_QQ_RELATIONS = _qq_relations()
_QQ_FACTORS, _QQ_TERMS = _qq_plan()


class QSystem:
    """Immutable mapping from the sixteen slots to ring elements."""

    __slots__ = ("_q",)

    def __init__(self, mapping: Mapping[str, TwistedPoly]) -> None:
        missing = [s for s in SLOTS if s not in mapping]
        if missing:
            raise ValueError(f"missing slots: {missing}")
        extra = [s for s in mapping if s not in SLOTS]
        if extra:
            raise ValueError(f"unknown slots: {extra}")
        q = {}
        for slot in SLOTS:
            val = mapping[slot]
            if not isinstance(val, TwistedPoly):
                raise TypeError(f"slot {slot}: expected TwistedPoly")
            q[slot] = val
        self._q = q

    def __getitem__(self, slot: str) -> TwistedPoly:
        return self._q[slot]

    def __iter__(self):
        return iter(SLOTS)

    def items(self):
        return ((slot, self._q[slot]) for slot in SLOTS)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSystem):
            return NotImplemented
        return self._q == other._q

    def zero_slots(self) -> Tuple[str, ...]:
        return tuple(slot for slot in SLOTS if self._q[slot].is_zero)

    def as_json(self) -> dict:
        return {"Q": {slot: self._q[slot].as_json() for slot in SLOTS}}

    @classmethod
    def from_json(cls, data) -> "QSystem":
        if not isinstance(data, dict) or "Q" not in data:
            raise ValueError("expected an object with a 'Q' mapping")
        return cls({slot: TwistedPoly.from_json(p) for slot, p in data["Q"].items()})

    def __repr__(self) -> str:
        nz = [s for s in SLOTS if not self._q[s].is_zero]
        return f"QSystem(nonzero slots: {', '.join(nz) or 'none'})"


def slot_grades(slot: str) -> Tuple[int, int]:
    """(|A|, |I|) for a slot string like '12|1'."""
    a, i = slot.split("|")
    return (0 if a == "0" else len(a), 0 if i == "0" else len(i))


def seed_components(b0: TwistedPoly, bs: Sequence[TwistedPoly]) -> Dict[Tuple[int, ...], TwistedPoly]:
    """All antisymmetric components generated by a seed.

    b0 is the even scalar seed; bs are the four odd-direction seeds.
    The component of a k-subset (k = 2, 3, 4) is the Casoratian of its
    seeds over b0, b0^+ b0^- and b0^[2] b0 b0^[-2] respectively.
    b0 must have one twist, so that each divisor has one too (ValueError
    otherwise), and the divisions must be exact: NotDivisible propagates
    to the caller when the seed does not generate a polynomial family.
    """
    if len(bs) != 4:
        raise ValueError("expected exactly four odd seeds")
    comp: Dict[Tuple[int, ...], TwistedPoly] = {(): b0}
    for m in range(1, 5):
        comp[(m,)] = bs[m - 1]
    dens = (b0, b0.shift(1) * b0.shift(-1), b0.shift(2) * b0 * b0.shift(-2))
    for k, den in enumerate(dens, 2):
        for sub in itertools.combinations(range(1, 5), k):
            comp[sub] = exact_div(wronskian(*(bs[m - 1] for m in sub)), den)
    return comp


def generate_from_seed(b0: TwistedPoly, bs: Sequence[TwistedPoly]) -> QSystem:
    """Full Q system from a seed, unchecked."""
    comp = seed_components(b0, bs)
    return QSystem({slot: sign * comp[sub] for slot, (sign, sub) in _COMPONENT.items()})


def hodge(q: QSystem) -> QSystem:
    """The raised system; slot 'A|I' of the result holds Q^{A|I}."""
    return QSystem({slot: q[src] if sign > 0 else -q[src] for slot, (sign, src) in _HODGE.items()})


@dataclass(frozen=True)
class QQReport:
    """Result of a full relation check."""

    ok: bool
    checked: int
    failures: Tuple[str, ...]
    zero_slots: Tuple[str, ...]

    def as_json(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "failures": list(self.failures),
            "zero_slots": list(self.zero_slots),
        }


def qq_residuals(q: QSystem) -> Iterable[Tuple[str, TwistedPoly]]:
    """Yield (name, residual) for each relation of `_QQ_TABLE`, in order.

    Every residual is the cleared (division-free) form of one relation;
    the relation holds iff the residual is the zero element.  Each
    distinct factor is a shifted slot of q, computed once, and each
    residual is one `signed_sum` of its terms.
    """
    value = [q[slot].shift(k) if k else q[slot] for slot, k in _QQ_FACTORS]
    for (name, _), terms in zip(_QQ_RELATIONS, _QQ_TERMS):
        yield name, signed_sum((sign, value[i], value[j]) for sign, i, j in terms)


def check_qq(q: QSystem) -> QQReport:
    """Check every relation exactly; ok means the residual set is zero."""
    residuals = list(qq_residuals(q))
    failures = tuple(name for name, res in residuals if not res.is_zero)
    return QQReport(ok=not failures, checked=len(residuals), failures=failures,
                    zero_slots=q.zero_slots())


def random_seed_polys(seed: int) -> Tuple[TwistedPoly, Tuple[TwistedPoly, ...]]:
    """Deterministic random admissible seed for a given integer.

    The even scalar is 1 (so every completion divides trivially), the
    first two odd seeds carry a reciprocal twist pair and random degree
    up to 3, and the last two are untwisted linear with a nonzero
    Wronskian, which keeps slot 0|0 a nonzero constant.
    """
    rng = random.Random(seed)

    def coeff(lo: int = -4, hi: int = 4) -> GaussRat:
        return GaussRat(
            Fraction(rng.randint(lo, hi), rng.randint(1, 3)),
            Fraction(rng.randint(lo, hi), rng.randint(1, 3)),
        )

    def lead() -> GaussRat:
        return GaussRat(rng.randint(1, 3), rng.randint(0, 2))

    tw = GaussRat(rng.randint(1, 3), rng.randint(1, 3))
    b0 = TwistedPoly.one()
    deg1 = rng.randint(1, 3)
    deg2 = rng.randint(1, 3)
    b1 = TwistedPoly.from_coeffs([coeff() for _ in range(deg1)] + [lead()], twist=tw)
    b2 = TwistedPoly.from_coeffs(
        [coeff() for _ in range(deg2)] + [lead()], twist=tw.inverse()
    )
    while True:
        r3, r4 = coeff(), coeff()
        if r3 != r4:
            break
    b3 = TwistedPoly.from_coeffs([r3, 1])
    b4 = TwistedPoly.from_coeffs([r4, 1])
    return b0, (b1, b2, b3, b4)
