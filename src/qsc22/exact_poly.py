"""Exact arithmetic for polynomials twisted by exponential prefactors.

Ring elements are finite sums

    f(u) = sum_t  s_t^(-2iu) * p_t(u)

where each half-twist s_t is a nonzero Gaussian rational and p_t is a
polynomial with Gaussian-rational coefficients.  The point of the twist
normalization is the shift law on the half-unit lattice:

    f(u + i*n/2) = sum_t  s_t^n * s_t^(-2iu) * p_t(u + i*n/2),

so shifting by any number of half-units stays inside the ring and is
exact.  Twists combine formally under multiplication, and every
identity check compares ring elements exactly.

Representation.  A `TwistedPoly` stores each term as (s, d, re, im):
the twist s as a Gaussian-integer triple (a, b, e) standing for
(a + b*i)/e with e > 0 and gcd(a, b, e) == 1, a denominator d > 0 and
two equally long tuples of Python ints, standing for

    p_t(u) = (1/d) * sum_k (re[k] + i*im[k]) * u^k.

The form is canonical (each twist triple reduced, gcd(d, *re, *im) == 1,
nonzero top coefficient, terms sorted by twist in `GaussRat.sort_key`
order), so equal elements have equal term tuples and `==` and `hash`
compare structure.  Products, sums, shifts and exact division run on
these integers, twists included.  A sum of products, `signed_sum` (`*`
calls it too), collects every term pair in one bucket and is put in
canonical form once, not once per product and partial sum.  `GaussRat`
is the boundary type: the constructor parses it once, and twists and
coefficients are built as `GaussRat` only when `.terms` or `.twists()`
is read.  `shift(n)` runs
an integer Taylor shift on the numerators (scaled by 2^deg for odd n,
where the step i*n/2 is not a Gaussian integer), multiplies by s^n and
reduces once by the gcd.

`wronskian(f_1, ..., f_k)` is the Casoratian det f_i^[k+1-2j] on the
half-unit shift lattice, expanded along its first row with one
`signed_sum` per level; for two functions it is f^+ g^- - f^- g^+.

Elements are immutable, so `f.shift(n)` keeps its result in a memo on
f.  A memo lives and dies with its instance; nothing is cached across
instances.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Rational = Union[int, Fraction, str]
# An integer as `GaussRat.as_json` writes it; from_json takes this or a JSON int.
_DECIMAL_INT = re.compile(r"-?[0-9]+")


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
        if not all(type(x) is int or (isinstance(x, str) and _DECIMAL_INT.fullmatch(x))
                   for x in data):
            raise ValueError(f"entries must be integers or decimal-integer strings, "
                             f"got {data!r}")
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
# Half-twist (a, b, e) for (a + b*i)/e, with e > 0 and gcd(a, b, e) == 1.
Twist = Tuple[int, int, int]
# Canonical term: (twist, d, re, im) for (1/d) * sum_k (re[k] + i*im[k]) u^k.
IntTerm = Tuple[Twist, int, Tuple[int, ...], Tuple[int, ...]]
# What sums of terms accumulate per twist triple before canonicalization.
Bucket = Dict[Twist, Tuple[int, List[int], List[int]]]


def _split(c: GaussRat) -> Tuple[int, int, int]:
    """(a, b, d) with c = (a + b*i)/d and d > 0 the least such, so that
    gcd(a, b, d) == 1: for a nonzero twist, its canonical triple."""
    re, im = c.re, c.im
    rd, idn = re.denominator, im.denominator
    d = rd * idn // gcd(rd, idn)
    return re.numerator * (d // rd), im.numerator * (d // idn), d


def _scalar(value) -> Tuple[int, int, int]:
    """`_split` of any value `GaussRat.coerce` accepts."""
    if isinstance(value, int):
        return value, 0, 1
    return _split(GaussRat.coerce(value))


def _gauss(s: Twist) -> GaussRat:
    a, b, e = s
    return GaussRat(Fraction(a, e), Fraction(b, e))


def _reduced(a: int, b: int, e: int) -> Twist:
    g = gcd(a, b, e)
    if g == 1:
        return a, b, e
    return a // g, b // g, e // g


def _twist_mul(s: Twist, t: Twist) -> Twist:
    a, b, e = s
    c, d, f = t
    return _reduced(a * c - b * d, a * d + b * c, e * f)


def _twist_div(s: Twist, t: Twist) -> Twist:
    """s/t = (a + b*i) * (c - d*i) * f / (e * (c^2 + d^2))."""
    a, b, e = s
    c, d, f = t
    return _reduced((a * c + b * d) * f, (b * c - a * d) * f, e * (c * c + d * d))


def _canonical(s: Twist, d: int, re: Sequence[int], im: Sequence[int]) -> Optional[IntTerm]:
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


def _accumulate(bucket: Bucket, s: Twist, d: int, re: List[int], im: List[int]) -> None:
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
    twists = list(bucket)
    if len(twists) > 1:
        # GaussRat.sort_key order: (re, im) over a common denominator.
        lcm = 1
        for _, _, e in twists:
            lcm = lcm * e // gcd(lcm, e)
        twists.sort(key=lambda s: (s[0] * (lcm // s[2]), s[1] * (lcm // s[2])))
    out = []
    for s in twists:
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


def _twist_power(s: Twist, n: int) -> Twist:
    """(a, b, e) with s**n = (a + b*i)/e and e > 0, not reduced."""
    a, b, e = s
    if n < 0:
        a, b, e = e * a, -e * b, a * a + b * b
        n = -n
    pa, pb, pe = 1, 0, 1
    for _ in range(n):
        pa, pb, pe = pa * a - pb * b, pa * b + pb * a, pe * e
    return pa, pb, pe


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
    a, b, e = _twist_power(s, n)
    if b or a != e:
        re, im = _times(re, im, a, b)
        d *= e
    return _canonical(s, d, re, im)


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

    __slots__ = ("_t", "_terms", "_shifts")

    def __init__(self, terms: Iterable = ()) -> None:
        bucket: Bucket = {}
        for s, coeffs in terms:
            s = GaussRat.coerce(s)
            if not s:
                raise ValueError("twist must be nonzero")
            s = _split(s)
            parts = [_scalar(c) for c in coeffs]
            d = 1
            for _, _, e in parts:
                d = d * e // gcd(d, e)
            re = [a * (d // e) for a, _, e in parts]
            im = [b * (d // e) for _, b, e in parts]
            _accumulate(bucket, s, d, re, im)
        self._set(_collect(bucket)._t)

    def _set(self, t: Tuple[IntTerm, ...]) -> None:
        self._t = t
        self._terms = None
        self._shifts = None

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
                (_gauss(s), tuple(GaussRat(Fraction(a, d), Fraction(b, d))
                                  for a, b in zip(re, im)))
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
        return tuple(_gauss(s) for s, _, _, _ in self._t)

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
        return TwistedPoly._wrap(tuple(
            (s, d, tuple(-x for x in re), tuple(-x for x in im))
            for s, d, re, im in self._t
        ))

    def __neg__(self) -> "TwistedPoly":
        return self._negated()

    def __sub__(self, other) -> "TwistedPoly":
        if not isinstance(other, TwistedPoly):
            other = TwistedPoly.constant(GaussRat.coerce(other))
        return self + other._negated()

    def __rsub__(self, other) -> "TwistedPoly":
        return self._negated() + other

    def _scaled(self, c) -> "TwistedPoly":
        """self * c for a scalar c; the factor 1 returns self."""
        a, b, e = _scalar(c)
        if not b and a == e:
            return self
        return _collect({s: (d * e, *_times(re, im, a, b)) for s, d, re, im in self._t})

    def __mul__(self, other) -> "TwistedPoly":
        if not isinstance(other, TwistedPoly):
            return self._scaled(other)
        return signed_sum(((1, self, other),))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TwistedPoly":
        if isinstance(other, TwistedPoly):
            return exact_div(self, other)
        return self._scaled(GaussRat.coerce(other).inverse())

    def shift(self, n: int) -> "TwistedPoly":
        """f(u + i*n/2), recomposed exactly in powers of u."""
        if n == 0 or not self._t:
            return self
        memo = self._shifts
        if memo is None:
            memo = self._shifts = {}
        elif n in memo:
            return memo[n]
        out = memo[n] = TwistedPoly._wrap(tuple(_shift_term(t, n) for t in self._t))
        return out

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


def signed_sum(terms: Iterable[Tuple[int, TwistedPoly, TwistedPoly]]) -> TwistedPoly:
    """The sum of sign * f * g over (sign, f, g) triples, sign 1 or -1.
    Two one-coefficient terms multiply inline, not by `_convolve`."""
    bucket: Bucket = {}
    for sign, f, g in terms:
        for s1, d1, r1, i1 in f._t:
            if sign < 0:
                r1, i1 = [-x for x in r1], [-x for x in i1]
            for s2, d2, r2, i2 in g._t:
                if len(r1) == 1 and len(r2) == 1:
                    a, b, c, e = r1[0], i1[0], r2[0], i2[0]
                    re, im = [a * c - b * e], [a * e + b * c]
                else:
                    re, im = _convolve(r1, i1, r2, i2)
                _accumulate(bucket, _twist_mul(s1, s2), d1 * d2, re, im)
    return _collect(bucket)


def _det(mat: Sequence[Sequence[TwistedPoly]]) -> TwistedPoly:
    """Laplace expansion along the first row, one `signed_sum` per level."""
    if len(mat) == 1:
        return mat[0][0]
    return signed_sum((1 - 2 * (j % 2), x, _det([row[:j] + row[j + 1:] for row in mat[1:]]))
                      for j, x in enumerate(mat[0]))


def wronskian(*fs: TwistedPoly) -> TwistedPoly:
    """The Casoratian det f_i^[k+1-2j] (i, j = 1..k) of k >= 1 functions
    on the half-unit shift lattice: f itself for k = 1, and
    f^[+1] g^[-1] - f^[-1] g^[+1] for k = 2."""
    k = len(fs)
    if not k:
        raise ValueError("wronskian needs at least one function")
    return _det([[f.shift(k - 1 - 2 * j) for j in range(k)] for f in fs])


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
    """Exact quotient f/g in the ring, for a divisor g with one twist.

    Each term of f is long-divided by g with a zero-remainder
    requirement, so the quotient is complete and unique; NotDivisible is
    raised when a remainder is left.  A divisor with two or more twists
    raises ValueError: every divisor the program forms (b0, b0^+ b0^-,
    b0^[2] b0 b0^[-2]) has one twist whenever the even seed b0 does.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by zero element")
    if len(g._t) != 1:
        raise ValueError(f"divisor has {len(g._t)} twists; exact_div needs one")
    if f.is_zero:
        return TwistedPoly.zero()
    sg, dg, rg, jg = g._t[0]
    return _collect({
        _twist_div(sf, sg): _divide(df, rf, jf, dg, rg, jg) for sf, df, rf, jf in f._t
    })
