"""Wronskian-generated families of sixteen Q functions and their checks.

A system assigns one twisted polynomial to every slot "A|I" where A and
I are subsets of {1,2} ("0" stands for the empty set, so the slots run
"0|0", "1|0", ..., "12|12").  The defining structure is the set of
bilinear shift relations checked by `check_qq`: determinant-type
relations among the middle block, two-term Wronskian relations tying
neighbouring blocks together, and the corner completions.  Everything
here is exact; a relation holds iff its residual is the zero element.

`generate_from_seed` builds a full system from five seed functions by
shifted-determinant completion and re-audits the result, so any system
it returns passes `check_qq` identically.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .exact_poly import GaussRat, TwistedPoly, exact_div, wronskian

SLOTS = (
    "0|0", "1|0", "2|0", "12|0",
    "0|1", "0|2", "0|12",
    "1|1", "1|2", "2|1", "2|2",
    "12|1", "12|2", "1|12", "2|12",
    "12|12",
)

# Component of the seed expansion backing each slot (indices 1,2 are the
# even directions, 3,4 the odd ones), and the sign convention.  The
# signs are a frozen convention: they are the unique assignment (up to
# the constant-rotation orbit) under which every relation family below
# holds identically for generated systems, with the corner orientation
# Q_{12|0} Q_{0|0} = -W(Q_{1|0}, Q_{2|0}) of the corner relations.
_BASE = {
    "0|0": (3, 4), "1|0": (1, 3, 4), "2|0": (2, 3, 4), "12|0": (1, 2, 3, 4),
    "0|1": (4,), "0|2": (3,), "0|12": (),
    "1|1": (1, 4), "1|2": (1, 3), "2|1": (2, 4), "2|2": (2, 3),
    "12|1": (1, 2, 4), "12|2": (1, 2, 3),
    "1|12": (1,), "2|12": (2,),
    "12|12": (1, 2),
}

_SIGN = {
    "0|0": 1, "1|0": 1, "2|0": 1, "12|0": -1,
    "0|1": -1, "0|2": 1, "0|12": -1,
    "1|1": -1, "1|2": 1, "2|1": -1, "2|2": 1,
    "12|1": -1, "12|2": 1, "1|12": 1, "2|12": 1,
    "12|12": 1,
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

_SHIFTS3 = (2, 0, -2)
_SHIFTS4 = (3, 1, -1, -3)


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


def _det(mat: Sequence[Sequence[TwistedPoly]]) -> TwistedPoly:
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = TwistedPoly.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def seed_components(b0: TwistedPoly, bs: Sequence[TwistedPoly]) -> Dict[Tuple[int, ...], TwistedPoly]:
    """All antisymmetric components generated by a seed.

    b0 is the even scalar seed; bs are the four odd-direction seeds.
    Pairs come from Wronskians over b0, triples and the top component
    from shifted determinants divided by shifted products of b0.  The
    divisions must be exact; NotDivisible propagates to the caller when
    the seed does not generate a polynomial family.
    """
    if len(bs) != 4:
        raise ValueError("expected exactly four odd seeds")
    comp: Dict[Tuple[int, ...], TwistedPoly] = {(): b0}
    for m in range(1, 5):
        comp[(m,)] = bs[m - 1]
    for m, n in itertools.combinations(range(1, 5), 2):
        comp[(m, n)] = exact_div(wronskian(bs[m - 1], bs[n - 1]), b0)
    den3 = b0.shift(1) * b0.shift(-1)
    for trip in itertools.combinations(range(1, 5), 3):
        mat = [[bs[x - 1].shift(s) for s in _SHIFTS3] for x in trip]
        comp[trip] = exact_div(_det(mat), den3)
    den4 = b0.shift(2) * b0 * b0.shift(-2)
    mat = [[bs[x - 1].shift(s) for s in _SHIFTS4] for x in range(1, 5)]
    comp[(1, 2, 3, 4)] = exact_div(_det(mat), den4)
    return comp


def generate_from_seed(b0: TwistedPoly, bs: Sequence[TwistedPoly], audit: bool = True) -> QSystem:
    """Full Q system from a seed; audited against the relation set."""
    comp = seed_components(b0, bs)
    q = QSystem({slot: _SIGN[slot] * comp[_BASE[slot]] for slot in SLOTS})
    if audit:
        report = check_qq(q)
        if not report.ok:
            raise ArithmeticError(
                f"generated system failed self-check: {report.failures}"
            )
    return q


def hodge(q: QSystem) -> QSystem:
    """The raised system; slot 'A|I' of the result holds Q^{A|I}."""
    out = {}
    for slot in SLOTS:
        sgn, src = _HODGE[slot]
        out[slot] = q[src] if sgn > 0 else -q[src]
    return QSystem(out)


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
    """Yield (name, residual) over the full relation inventory.

    Every residual is the cleared (division-free) form of one relation;
    the relation holds iff the residual is the zero element.
    """
    up = hodge(q)

    def V(slot: str, k: int = 0) -> TwistedPoly:
        return q[slot].shift(k) if k else q[slot]

    def U(slot: str, k: int = 0) -> TwistedPoly:
        return up[slot].shift(k) if k else up[slot]

    for a in ("1", "2"):
        for i in ("1", "2"):
            yield (
                f"nl1[{a}|{i}]",
                wronskian(q[f"{a}|{i}"], q["0|0"]) - V(f"{a}|0") * V(f"0|{i}"),
            )
    lhs = wronskian(up["0|0"], q["0|0"])
    yield ("nl2[even]", lhs - (V("1|0") * U("1|0") + V("2|0") * U("2|0")))
    yield ("nl2[odd]", lhs - (V("0|1") * U("0|1") + V("0|2") * U("0|2")))
    yield (
        "det",
        V("1|1") * V("2|2") - V("1|2") * V("2|1") - V("12|12") * V("0|0"),
    )
    for i in ("1", "2"):
        for j in ("1", "2"):
            res = V(f"1|{i}") * U(f"1|{j}") + V(f"2|{i}") * U(f"2|{j}")
            if i == j:
                res = res + U("0|0") * V("0|0")
            yield (f"orth[.|{i}{j}]", res)
    for a in ("1", "2"):
        for b in ("1", "2"):
            res = V(f"{a}|1") * U(f"{b}|1") + V(f"{a}|2") * U(f"{b}|2")
            if a == b:
                res = res + U("0|0") * V("0|0")
            yield (f"orth[{a}{b}|.]", res)
    for a in ("1", "2"):
        for e in (1, -1):
            tag = "+" if e > 0 else "-"
            yield (
                f"l2a[{a},{tag}]",
                V(f"{a}|12") * V("0|0", e)
                - (V("0|1") * V(f"{a}|2", e) - V("0|2") * V(f"{a}|1", e)),
            )
            yield (
                f"l2a*[{a},{tag}]",
                U(f"{a}|0") * V("0|0", e)
                + U(f"{a}|1", e) * V("0|1") + U(f"{a}|2", e) * V("0|2"),
            )
    for i in ("1", "2"):
        for e in (1, -1):
            tag = "+" if e > 0 else "-"
            yield (
                f"l2b[{i},{tag}]",
                V(f"12|{i}") * V("0|0", e)
                - (V("1|0") * V(f"2|{i}", e) - V("2|0") * V(f"1|{i}", e)),
            )
            yield (
                f"l2b*[{i},{tag}]",
                U(f"0|{i}") * V("0|0", e)
                + U(f"1|{i}", e) * V("1|0") + U(f"2|{i}", e) * V("2|0"),
            )
    for a in ("1", "2"):
        for e in (1, -1):
            tag = "+" if e > 0 else "-"
            yield (
                f"l2c[{a},{tag}]",
                V(f"{a}|0") * V("12|12", e)
                + (V("12|1") * V(f"{a}|2", e) - V("12|2") * V(f"{a}|1", e)),
            )
            yield (
                f"l2c*[{a},{tag}]",
                V(f"{a}|0") * U("0|0", e)
                - (V(f"{a}|1", e) * U("0|1") + V(f"{a}|2", e) * U("0|2")),
            )
    for i in ("1", "2"):
        for e in (1, -1):
            tag = "+" if e > 0 else "-"
            yield (
                f"l2d[{i},{tag}]",
                V(f"0|{i}") * V("12|12", e)
                + (V("1|12") * V(f"2|{i}", e) - V("2|12") * V(f"1|{i}", e)),
            )
            yield (
                f"l2d*[{i},{tag}]",
                V(f"0|{i}") * U("0|0", e)
                - (V(f"1|{i}", e) * U("1|0") + V(f"2|{i}", e) * U("2|0")),
            )
    yield (
        "corner[12|0]",
        V("12|0") * V("0|0") + wronskian(q["1|0"], q["2|0"]),
    )
    yield (
        "corner[0|12]",
        V("0|12") * V("0|0") + wronskian(q["0|1"], q["0|2"]),
    )


def check_qq(q: QSystem) -> QQReport:
    """Check every relation exactly; ok means the residual set is zero."""
    failures = []
    checked = 0
    for name, res in qq_residuals(q):
        checked += 1
        if not res.is_zero:
            failures.append(name)
    return QQReport(
        ok=not failures,
        checked=checked,
        failures=tuple(failures),
        zero_slots=q.zero_slots(),
    )


def gauge_transform(q: QSystem, g_even: TwistedPoly, g_odd: TwistedPoly) -> QSystem:
    """Rescale the system by a two-parameter gauge.

    The middle block gains g_even * g_odd, the even column gains
    g_even^+ g_even^-, the odd row gains g_odd^+ g_odd^-, and the two
    corners gain three-fold shifted products with one exact division
    (g_even^[2] g_even g_even^[-2] / g_odd and the mirror), which may
    raise NotDivisible.  The output satisfies the same relation set.
    """
    if not isinstance(g_even, TwistedPoly):
        g_even = TwistedPoly.constant(GaussRat.coerce(g_even))
    if not isinstance(g_odd, TwistedPoly):
        g_odd = TwistedPoly.constant(GaussRat.coerce(g_odd))
    if g_even.is_zero or g_odd.is_zero:
        raise ValueError("gauge functions must be nonzero")
    mid = g_even * g_odd
    col = g_even.shift(1) * g_even.shift(-1)
    row = g_odd.shift(1) * g_odd.shift(-1)
    c_even = exact_div(g_even.shift(2) * g_even * g_even.shift(-2), g_odd)
    c_odd = exact_div(g_odd.shift(2) * g_odd * g_odd.shift(-2), g_even)
    out = {}
    for slot in SLOTS:
        na, ni = slot_grades(slot)
        if slot == "12|0":
            out[slot] = c_even * q[slot]
        elif slot == "0|12":
            out[slot] = c_odd * q[slot]
        elif (na, ni) in ((0, 0), (1, 1), (2, 2)):
            out[slot] = mid * q[slot]
        elif ni == 0 or (na, ni) == (2, 1):
            out[slot] = col * q[slot]
        else:
            out[slot] = row * q[slot]
    return QSystem(out)


def h_rotate(q: QSystem, h_even: Sequence[Sequence], h_odd: Sequence[Sequence]) -> QSystem:
    """Apply constant 2x2 rotations to the even and odd index pairs."""
    he = [[GaussRat.coerce(x) for x in row] for row in h_even]
    ho = [[GaussRat.coerce(x) for x in row] for row in h_odd]
    if len(he) != 2 or len(ho) != 2 or any(len(r) != 2 for r in he + ho):
        raise ValueError("rotations must be 2x2")
    det_e = he[0][0] * he[1][1] - he[0][1] * he[1][0]
    det_o = ho[0][0] * ho[1][1] - ho[0][1] * ho[1][0]
    out = {"0|0": q["0|0"]}
    for a in (1, 2):
        out[f"{a}|0"] = he[a - 1][0] * q["1|0"] + he[a - 1][1] * q["2|0"]
        out[f"{a}|12"] = det_o * (he[a - 1][0] * q["1|12"] + he[a - 1][1] * q["2|12"])
    for i in (1, 2):
        out[f"0|{i}"] = ho[i - 1][0] * q["0|1"] + ho[i - 1][1] * q["0|2"]
        out[f"12|{i}"] = det_e * (ho[i - 1][0] * q["12|1"] + ho[i - 1][1] * q["12|2"])
    for a in (1, 2):
        for i in (1, 2):
            acc = TwistedPoly.zero()
            for b in (1, 2):
                for j in (1, 2):
                    acc = acc + he[a - 1][b - 1] * ho[i - 1][j - 1] * q[f"{b}|{j}"]
            out[f"{a}|{i}"] = acc
    out["12|0"] = det_e * q["12|0"]
    out["0|12"] = det_o * q["0|12"]
    out["12|12"] = det_e * det_o * q["12|12"]
    return QSystem(out)


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


def random_qsystem(seed: int) -> QSystem:
    """Audited random system from `random_seed_polys`."""
    b0, bs = random_seed_polys(seed)
    return generate_from_seed(b0, bs)
