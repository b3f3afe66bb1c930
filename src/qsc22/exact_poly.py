"""Exact arithmetic for polynomials twisted by exponential prefactors.

Ring elements are finite sums

    f(u) = sum_t  s_t^(-2iu) * p_t(u)

where each half-twist s_t is a nonzero Gaussian rational and p_t is a
polynomial with Gaussian-rational coefficients.  The point of the twist
normalization is the shift law on the half-unit lattice:

    f(u + i*n/2) = sum_t  s_t^n * s_t^(-2iu) * p_t(u + i*n/2),

so shifting by any number of half-units stays inside the ring and is
exact.  Twists combine formally under multiplication; numeric
evaluation uses the principal logarithm per term, so evaluating a
product can differ from the product of evaluations when twist
arguments wrap past pi.  All identity checks elsewhere compare ring
elements exactly and never rely on numeric evaluation.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, Sequence, Tuple, Union

Rational = Union[int, Fraction, str]


class NotDivisible(ArithmeticError):
    """An exact quotient does not exist in the ring."""


class GaussRat:
    """Gaussian rational re + im*i with exact field operations.

    Instances are treated as immutable; `sort_key` gives the canonical
    (re, im) ordering used to normalize term lists.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rational = 0, im: Rational = 0) -> None:
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def coerce(cls, value) -> "GaussRat":
        if isinstance(value, GaussRat):
            return value
        if isinstance(value, (int, Fraction, str)):
            return cls(value)
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return cls(value[0], value[1])
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussRat")

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussRat(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __add__(self, other) -> "GaussRat":
        if isinstance(other, (int, Fraction)):
            other = GaussRat(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other) -> "GaussRat":
        if isinstance(other, (int, Fraction)):
            other = GaussRat(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other) -> "GaussRat":
        return (-self) + other

    def __mul__(self, other) -> "GaussRat":
        if isinstance(other, (int, Fraction)):
            return GaussRat(self.re * other, self.im * other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "GaussRat":
        n = self.norm2()
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return GaussRat(self.re / n, -self.im / n)

    def __truediv__(self, other) -> "GaussRat":
        if isinstance(other, (int, Fraction)):
            other = GaussRat(other)
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "GaussRat":
        return GaussRat.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "GaussRat":
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = GaussRat(1)
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def norm2(self) -> Fraction:
        """|z|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    def sort_key(self) -> Tuple[Fraction, Fraction]:
        return (self.re, self.im)

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def as_json(self) -> list:
        """[re_num, re_den, im_num, im_den] as decimal strings."""
        return [
            str(self.re.numerator),
            str(self.re.denominator),
            str(self.im.numerator),
            str(self.im.denominator),
        ]

    @classmethod
    def from_json(cls, data) -> "GaussRat":
        if not isinstance(data, (list, tuple)) or len(data) != 4:
            raise ValueError("expected [re_num, re_den, im_num, im_den]")
        a, b, c, d = (int(x) for x in data)
        return cls(Fraction(a, b), Fraction(c, d))

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"GaussRat({self.re!r}, {self.im!r})"


GaussRat.ZERO = GaussRat(0)
GaussRat.ONE = GaussRat(1)
GaussRat.I = GaussRat(0, 1)

Coeffs = Tuple[GaussRat, ...]
Term = Tuple[GaussRat, Coeffs]


def _padd(a: Sequence[GaussRat], b: Sequence[GaussRat]) -> list:
    n = max(len(a), len(b))
    out = []
    for k in range(n):
        x = a[k] if k < len(a) else GaussRat.ZERO
        y = b[k] if k < len(b) else GaussRat.ZERO
        out.append(x + y)
    return out


def _pmul(a: Sequence[GaussRat], b: Sequence[GaussRat]) -> list:
    if not a or not b:
        return []
    out = [GaussRat.ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


def _pdivmod(num: Sequence[GaussRat], den: Sequence[GaussRat]) -> Tuple[list, list]:
    """Exact polynomial long division over the Gaussian rationals."""
    rem = list(num)
    dd = len(den) - 1
    lead = den[-1]
    if len(rem) <= dd:
        return [], rem
    quot = [GaussRat.ZERO] * (len(rem) - dd)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + dd] / lead
        if not c:
            continue
        quot[k] = c
        for j, d in enumerate(den):
            rem[k + j] = rem[k + j] - c * d
    return quot, rem[:dd]


def _term_key(term: Term):
    s, coeffs = term
    return (len(coeffs), s.sort_key())


class TwistedPoly:
    """Normalized finite sum of terms (s, p): s^(-2iu) * p(u).

    Invariants: term twists are distinct and sorted by `sort_key`, every
    coefficient list has a nonzero top coefficient, and the zero element
    has no terms at all.  The constructor enforces all of this, so any
    two equal ring elements compare equal as tuples.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable = ()) -> None:
        bucket = {}
        for s, coeffs in terms:
            s = GaussRat.coerce(s)
            if not s:
                raise ValueError("twist must be nonzero")
            cs = [GaussRat.coerce(c) for c in coeffs]
            key = s.sort_key()
            if key in bucket:
                bucket[key] = (s, _padd(bucket[key][1], cs))
            else:
                bucket[key] = (s, cs)
        out = []
        for key in sorted(bucket):
            s, cs = bucket[key]
            while cs and not cs[-1]:
                cs.pop()
            if cs:
                out.append((s, tuple(cs)))
        self.terms = tuple(out)

    @classmethod
    def zero(cls) -> "TwistedPoly":
        return cls()

    @classmethod
    def one(cls) -> "TwistedPoly":
        return cls.constant(1)

    @classmethod
    def constant(cls, c) -> "TwistedPoly":
        return cls(((GaussRat.ONE, (GaussRat.coerce(c),)),))

    @classmethod
    def from_coeffs(cls, coeffs: Sequence, twist=1) -> "TwistedPoly":
        """Polynomial from ascending coefficients, optionally twisted."""
        return cls(((GaussRat.coerce(twist), tuple(coeffs)),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest polynomial degree over all terms; -1 for zero."""
        if not self.terms:
            return -1
        return max(len(coeffs) - 1 for _, coeffs in self.terms)

    def twists(self) -> Tuple[GaussRat, ...]:
        return tuple(s for s, _ in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwistedPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other) -> "TwistedPoly":
        if not isinstance(other, TwistedPoly):
            other = TwistedPoly.constant(GaussRat.coerce(other))
        return TwistedPoly(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self) -> "TwistedPoly":
        return TwistedPoly(
            (s, tuple(-c for c in coeffs)) for s, coeffs in self.terms
        )

    def __sub__(self, other) -> "TwistedPoly":
        if not isinstance(other, TwistedPoly):
            other = TwistedPoly.constant(GaussRat.coerce(other))
        return self + (-other)

    def __rsub__(self, other) -> "TwistedPoly":
        return (-self) + other

    def __mul__(self, other) -> "TwistedPoly":
        if not isinstance(other, TwistedPoly):
            c = GaussRat.coerce(other)
            return TwistedPoly(
                (s, tuple(c * x for x in coeffs)) for s, coeffs in self.terms
            )
        prods = []
        for s1, p1 in self.terms:
            for s2, p2 in other.terms:
                prods.append((s1 * s2, _pmul(p1, p2)))
        return TwistedPoly(prods)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TwistedPoly":
        if isinstance(other, TwistedPoly):
            return exact_div(self, other)
        return self * GaussRat.coerce(other).inverse()

    def shift(self, n: int) -> "TwistedPoly":
        """f(u + i*n/2), recomposed exactly in powers of u."""
        if n == 0 or self.is_zero:
            return self
        step = GaussRat(0, Fraction(n, 2))
        new_terms = []
        for s, coeffs in self.terms:
            sn = s ** n
            new = [GaussRat.ZERO] * len(coeffs)
            for m, c in enumerate(coeffs):
                if not c:
                    continue
                c = c * sn
                p = GaussRat.ONE
                for j in range(m, -1, -1):
                    new[j] = new[j] + c * math.comb(m, j) * p
                    p = p * step
            new_terms.append((s, new))
        return TwistedPoly(new_terms)

    def __call__(self, u) -> complex:
        uc = complex(u)
        total = 0j
        for s, coeffs in self.terms:
            acc = 0j
            for c in reversed(coeffs):
                acc = acc * uc + c.to_complex()
            sc = s.to_complex()
            if sc != 1:
                acc *= cmath.exp(-2j * uc * cmath.log(sc))
            total += acc
        return total

    def as_json(self) -> dict:
        return {
            "terms": [
                {"s": s.as_json(), "coeffs": [c.as_json() for c in coeffs]}
                for s, coeffs in self.terms
            ]
        }

    @classmethod
    def from_json(cls, data) -> "TwistedPoly":
        if not isinstance(data, dict) or "terms" not in data:
            raise ValueError("expected an object with a 'terms' list")
        terms = []
        for item in data["terms"]:
            terms.append(
                (
                    GaussRat.from_json(item["s"]),
                    tuple(GaussRat.from_json(c) for c in item["coeffs"]),
                )
            )
        return cls(terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "TwistedPoly(0)"
        parts = []
        for s, coeffs in self.terms:
            body = " + ".join(
                f"({c})*u^{k}" if k else f"({c})"
                for k, c in enumerate(coeffs)
                if c
            )
            if s == GaussRat.ONE:
                parts.append(body)
            else:
                parts.append(f"[{s}]^(-2iu)*({body})")
        return "TwistedPoly(" + " | ".join(parts) + ")"


def wronskian(f: TwistedPoly, g: TwistedPoly) -> TwistedPoly:
    """f^[+1] g^[-1] - f^[-1] g^[+1] on the half-unit shift lattice."""
    return f.shift(1) * g.shift(-1) - f.shift(-1) * g.shift(1)


def exact_div(f: TwistedPoly, g: TwistedPoly) -> TwistedPoly:
    """Exact quotient f/g in the ring.

    Complete when g has a single twist (per-term long division with a
    zero-remainder requirement).  For several twists it reduces by the
    leading term under (degree, twist) order with a step cap and then
    verifies the candidate by multiplication, so a returned quotient is
    always certified; NotDivisible is raised otherwise.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by zero element")
    if f.is_zero:
        return TwistedPoly.zero()
    if len(g.terms) == 1:
        sg, pg = g.terms[0]
        out = []
        for sf, pf in f.terms:
            quot, rem = _pdivmod(pf, pg)
            if any(rem):
                raise NotDivisible("nonzero remainder in long division")
            out.append((sf / sg, quot))
        return TwistedPoly(out)
    sg, pg = max(g.terms, key=_term_key)
    lead = pg[-1]
    dg = len(pg) - 1
    quot = TwistedPoly.zero()
    rem = f
    cap = 64 + 8 * len(f.terms) * (f.degree() + 2)
    for _ in range(cap):
        if rem.is_zero:
            break
        sr, pr = max(rem.terms, key=_term_key)
        if len(pr) - 1 < dg:
            break
        mono = [GaussRat.ZERO] * (len(pr) - 1 - dg) + [pr[-1] / lead]
        t = TwistedPoly(((sr / sg, mono),))
        quot = quot + t
        rem = rem - t * g
    if not rem.is_zero or quot * g != f:
        raise NotDivisible("no exact quotient found")
    return quot
