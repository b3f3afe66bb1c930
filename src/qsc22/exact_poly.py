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

Representation.  A `TwistedPoly` stores each term as (s, d, re, im):
the twist s as a `GaussRat`, a denominator d > 0 and two equally long
tuples of Python ints, standing for

    p_t(u) = (1/d) * sum_k (re[k] + i*im[k]) * u^k.

The form is canonical (gcd(d, *re, *im) == 1, nonzero top coefficient,
terms sorted by twist), so equal elements have equal term tuples and
`==` and `hash` compare structure.  Products, sums, shifts and exact
division run on these integers; `GaussRat` coefficients are built only
when `.terms` is read, once per instance.  `shift(n)` runs an integer
Taylor shift on the numerators (scaled by 2^deg for odd n, where the
step i*n/2 is not a Gaussian integer), multiplies by s^n and reduces
once by the gcd.

Elements are immutable, so `f.shift(n)` keeps its result in a memo on
f, and `-f` answers `shift(n)` with `-(f.shift(n))`: an element and its
negative share one set of shifts.  A memo lives and dies with its
instance; nothing is cached across instances.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Rational = Union[int, Fraction, str]


class NotDivisible(ArithmeticError):
    """An exact quotient does not exist in the ring."""


class GaussRat:
    """Gaussian rational re + im*i with exact field operations.

    Instances are treated as immutable; `sort_key` gives the canonical
    (re, im) ordering used to normalize term lists.  A real GaussRat
    hashes like its `Fraction`, because it compares equal to it.
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
        if not self.im:
            return hash(self.re)
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
# Canonical term: (twist, d, re, im) for (1/d) * sum_k (re[k] + i*im[k]) u^k.
IntTerm = Tuple[GaussRat, int, Tuple[int, ...], Tuple[int, ...]]
# What sums of terms accumulate per twist before canonicalization.
Bucket = Dict[GaussRat, Tuple[int, List[int], List[int]]]


def _split(c: GaussRat) -> Tuple[int, int, int]:
    """(d, a, b) with c = (a + b*i)/d and d > 0 the least such."""
    re, im = c.re, c.im
    rd, idn = re.denominator, im.denominator
    d = rd * idn // gcd(rd, idn)
    return d, re.numerator * (d // rd), im.numerator * (d // idn)


def _scalar(value) -> Tuple[int, int, int]:
    """`_split` of any value `GaussRat.coerce` accepts."""
    if isinstance(value, int):
        return 1, value, 0
    return _split(GaussRat.coerce(value))


def _canonical(s: GaussRat, d: int, re: Sequence[int], im: Sequence[int]) -> Optional[IntTerm]:
    """The canonical term of (1/d) * (re + i*im), or None when it is zero."""
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    if not n:
        return None
    g = gcd(d, *re[:n], *im[:n])
    if g == 1:
        return (s, d, tuple(re[:n]), tuple(im[:n]))
    return (s, d // g, tuple(x // g for x in re[:n]), tuple(x // g for x in im[:n]))


def _accumulate(bucket: Bucket, s: GaussRat, d: int, re: List[int], im: List[int]) -> None:
    """Add (1/d) * (re + i*im) to the polynomial of twist s in bucket."""
    prev = bucket.get(s)
    if prev is None:
        bucket[s] = (d, re, im)
        return
    d0, re0, im0 = prev
    if d0 != d:
        g = gcd(d0, d)
        m0, m = d // g, d0 // g
        d0 *= m0
        re0 = [x * m0 for x in re0]
        im0 = [x * m0 for x in im0]
        re = [x * m for x in re]
        im = [x * m for x in im]
    if len(re0) < len(re):
        re0, im0, re, im = re, im, re0, im0
    re0, im0 = list(re0), list(im0)
    for k, (a, b) in enumerate(zip(re, im)):
        re0[k] += a
        im0[k] += b
    bucket[s] = (d0, re0, im0)


def _collect(bucket: Bucket) -> "TwistedPoly":
    """The element with the bucket's terms, in canonical form."""
    out = []
    for s in sorted(bucket, key=GaussRat.sort_key):
        t = _canonical(s, *bucket[s])
        if t is not None:
            out.append(t)
    return TwistedPoly._wrap(tuple(out))


def _convolve(r1, i1, r2, i2) -> Tuple[List[int], List[int]]:
    """Product of two Gaussian-integer coefficient lists."""
    n = len(r1) + len(r2) - 1
    re = [0] * n
    im = [0] * n
    pairs = tuple(zip(r2, i2))
    for j, (a, b) in enumerate(zip(r1, i1)):
        for k, (c, e) in enumerate(pairs, j):
            re[k] += a * c - b * e
            im[k] += a * e + b * c
    return re, im


def _times(re, im, a: int, b: int) -> Tuple[List[int], List[int]]:
    """Every coefficient re[k] + i*im[k] multiplied by a + b*i."""
    return ([x * a - y * b for x, y in zip(re, im)],
            [x * b + y * a for x, y in zip(re, im)])


def _twist_power(s: GaussRat, n: int) -> Tuple[int, int, int]:
    """(e, a, b) with s**n = (a + b*i)/e and e > 0."""
    e, a, b = _split(s)
    if n < 0:
        e, a, b = a * a + b * b, e * a, -e * b
        n = -n
    pe, pa, pb = 1, 1, 0
    for _ in range(n):
        pe, pa, pb = pe * e, pa * a - pb * b, pa * b + pb * a
    return pe, pa, pb


def _shift_term(term: IntTerm, n: int) -> IntTerm:
    """The term of s^n * p(u + i*n/2), exact.

    With h = 2 for odd n (1 otherwise), Q(v) = h^deg p(v/h) has integer
    coefficients, Q(v + i*n*h/2) by the Horner Taylor shift is
    h^deg p((v + i*n*h/2)/h), and v = h*u gives h^deg p(u + i*n/2).
    """
    s, d, re, im = term
    deg = len(re) - 1
    odd = n & 1
    step = n if odd else n // 2
    re = [x << (odd * (deg - k)) for k, x in enumerate(re)]
    im = [x << (odd * (deg - k)) for k, x in enumerate(im)]
    for lo in range(deg):
        for j in range(deg - 1, lo - 1, -1):
            re[j] -= step * im[j + 1]
            im[j] += step * re[j + 1]
    if odd:
        re = [x << k for k, x in enumerate(re)]
        im = [x << k for k, x in enumerate(im)]
        d <<= deg
    e, a, b = _twist_power(s, n)
    if b or a != e:
        re, im = _times(re, im, a, b)
        d *= e
    return _canonical(s, d, re, im)


def _lead_key(term: IntTerm):
    return (len(term[2]), term[0].sort_key())


class TwistedPoly:
    """Canonical finite sum of terms s^(-2iu) * p(u).

    Invariants: term twists are distinct and sorted by `sort_key`, every
    polynomial has a nonzero top coefficient and its integer numerators
    and denominator have no common factor, and the zero element has no
    terms at all.  Every constructor enforces this, so any two equal
    ring elements are equal term tuples.

    `.terms` gives the terms as (twist, coefficients) with `GaussRat`
    coefficients in ascending order, the form the constructor accepts.
    """

    __slots__ = ("_t", "_terms", "_shifts", "_neg")

    def __init__(self, terms: Iterable = ()) -> None:
        bucket: Bucket = {}
        for s, coeffs in terms:
            s = GaussRat.coerce(s)
            if not s:
                raise ValueError("twist must be nonzero")
            parts = [_scalar(c) for c in coeffs]
            d = 1
            for e, _, _ in parts:
                d = d * e // gcd(d, e)
            re = [a * (d // e) for e, a, _ in parts]
            im = [b * (d // e) for e, _, b in parts]
            _accumulate(bucket, s, d, re, im)
        self._set(_collect(bucket)._t)

    def _set(self, t: Tuple[IntTerm, ...]) -> None:
        self._t = t
        self._terms = None
        self._shifts = None
        self._neg = None

    @classmethod
    def _wrap(cls, t: Tuple[IntTerm, ...]) -> "TwistedPoly":
        """The element with canonical terms t, without re-checking them."""
        out = object.__new__(cls)
        out._set(t)
        return out

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
    def terms(self) -> Tuple[Tuple[GaussRat, Coeffs], ...]:
        if self._terms is None:
            self._terms = tuple(
                (s, tuple(GaussRat(Fraction(a, d), Fraction(b, d)) for a, b in zip(re, im)))
                for s, d, re, im in self._t
            )
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._t

    def degree(self) -> int:
        """Largest polynomial degree over all terms; -1 for zero."""
        if not self._t:
            return -1
        return max(len(re) for _, _, re, _ in self._t) - 1

    def twists(self) -> Tuple[GaussRat, ...]:
        return tuple(s for s, _, _, _ in self._t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TwistedPoly):
            return NotImplemented
        return self._t == other._t

    def __hash__(self) -> int:
        return hash(self._t)

    def __bool__(self) -> bool:
        return bool(self._t)

    def __add__(self, other) -> "TwistedPoly":
        if not isinstance(other, TwistedPoly):
            other = TwistedPoly.constant(GaussRat.coerce(other))
        if not other._t:
            return self
        if not self._t:
            return other
        bucket: Bucket = {}
        for s, d, re, im in self._t + other._t:
            _accumulate(bucket, s, d, re, im)
        return _collect(bucket)

    __radd__ = __add__

    def _negated(self) -> "TwistedPoly":
        if self._neg is not None:
            return self._neg
        out = TwistedPoly._wrap(tuple(
            (s, d, tuple(-x for x in re), tuple(-x for x in im))
            for s, d, re, im in self._t
        ))
        out._neg = self
        return out

    def __neg__(self) -> "TwistedPoly":
        return self._negated()

    def __sub__(self, other) -> "TwistedPoly":
        if not isinstance(other, TwistedPoly):
            other = TwistedPoly.constant(GaussRat.coerce(other))
        return self + other._negated()

    def __rsub__(self, other) -> "TwistedPoly":
        return self._negated() + other

    def _scaled(self, c) -> "TwistedPoly":
        """self * c for a scalar c; the factors 1 and -1 keep the memo."""
        e, a, b = _scalar(c)
        if not b and a == e:
            return self
        if not b and a == -e:
            return self._negated()
        return _collect({s: (d * e, *_times(re, im, a, b)) for s, d, re, im in self._t})

    def __mul__(self, other) -> "TwistedPoly":
        if not isinstance(other, TwistedPoly):
            return self._scaled(other)
        bucket: Bucket = {}
        for s1, d1, r1, i1 in self._t:
            for s2, d2, r2, i2 in other._t:
                re, im = _convolve(r1, i1, r2, i2)
                _accumulate(bucket, s1 * s2, d1 * d2, re, im)
        return _collect(bucket)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TwistedPoly":
        if isinstance(other, TwistedPoly):
            return exact_div(self, other)
        return self._scaled(GaussRat.coerce(other).inverse())

    def shift(self, n: int) -> "TwistedPoly":
        """f(u + i*n/2), recomposed exactly in powers of u."""
        return self._shifted(n)

    def _shifted(self, n: int) -> "TwistedPoly":
        # Internal callers come here, so a wrapper around `shift` (as in
        # bench/tracing.py) counts the calls from outside only.
        if n == 0 or not self._t:
            return self
        memo = self._shifts
        if memo is None:
            memo = self._shifts = {}
        elif n in memo:
            return memo[n]
        if self._neg is not None:
            out = self._neg._shifted(n)._negated()
        else:
            out = TwistedPoly._wrap(tuple(_shift_term(t, n) for t in self._t))
        memo[n] = out
        return out

    def __call__(self, u) -> complex:
        uc = complex(u)
        total = 0j
        for s, d, re, im in self._t:
            acc = 0j
            for a, b in zip(reversed(re), reversed(im)):
                acc = acc * uc + complex(a / d, b / d)
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
        if not self._t:
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


def _divide(df, rf, jf, dg, rg, jg) -> Tuple[int, List[int], List[int]]:
    """(d, re, im) of the quotient (F/df) / (G/dg) of one-twist polynomials.

    With L the top coefficient of G and N = |L|^2, G' = conj(L)*G has
    top coefficient N, and pseudo-division gives N^(m+1) F = Q G' + R
    with every step an exact integer division by N (m = deg F - deg G).
    Then F/G = conj(L) Q / N^(m+1) when R is zero.
    """
    lr, li = rg[-1], jg[-1]
    norm = lr * lr + li * li
    gr, gi = _times(rg, jg, lr, -li)
    dd = len(gr) - 1
    m = len(rf) - 1 - dd
    if m < 0:
        raise NotDivisible("nonzero remainder in long division")
    scale = norm ** (m + 1)
    rem_r = [x * scale for x in rf]
    rem_i = [x * scale for x in jf]
    qr = [0] * (m + 1)
    qi = [0] * (m + 1)
    for k in range(m, -1, -1):
        cr = rem_r[k + dd] // norm
        ci = rem_i[k + dd] // norm
        if not cr and not ci:
            continue
        qr[k], qi[k] = cr, ci
        for j, (a, b) in enumerate(zip(gr, gi), k):
            rem_r[j] -= cr * a - ci * b
            rem_i[j] -= cr * b + ci * a
    if any(rem_r[:dd]) or any(rem_i[:dd]):
        raise NotDivisible("nonzero remainder in long division")
    return (df * scale, *_times(qr, qi, dg * lr, -dg * li))


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
    if len(g._t) == 1:
        sg, dg, rg, jg = g._t[0]
        return _collect({
            sf / sg: _divide(df, rf, jf, dg, rg, jg) for sf, df, rf, jf in f._t
        })
    sg, dg, rg, jg = max(g._t, key=_lead_key)
    lr, li = rg[-1], jg[-1]
    quot = TwistedPoly.zero()
    rem = f
    cap = 64 + 8 * len(f._t) * (f.degree() + 2)
    for _ in range(cap):
        if rem.is_zero:
            break
        sr, dr, rr, jr = max(rem._t, key=_lead_key)
        if len(rr) < len(rg):
            break
        pad = [0] * (len(rr) - len(rg))
        (a,), (b,) = _times(rr[-1:], jr[-1:], dg * lr, -dg * li)
        t = _collect({sr / sg: (dr * (lr * lr + li * li), pad + [a], pad + [b])})
        quot = quot + t
        rem = rem - t * g
    if not rem.is_zero or quot * g != f:
        raise NotDivisible("no exact quotient found")
    return quot
