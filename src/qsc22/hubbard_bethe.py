"""Bethe equations of the inhomogeneous su(2|2) chain and their Lieb-Wu limit.

Three families of roots enter the nested system: zeros x_{1|e} on the
first sheet, middle-node rapidities u_{1|1}, and zeros x_{1|t} on the
second sheet.  Every equation is evaluated in log form with the
principal branch, one residual per root, so a solved configuration is a
zero vector.  The middle-node equation is written with the self-term
excluded and -1 on the right-hand side; with that bookkeeping a single
middle root and unit twist gives the residual i*pi rather than zero,
which is the displayed behaviour and is covered by the tests.

The homogeneous Lieb-Wu system uses the coupling u = 1/(2 h).  Its
solver works in the counting (arctan) form with integer mode numbers,
homotopy in the coupling from the decoupled point, and damped Newton;
solutions are validated against the product-form residuals and, by the
callers, against exact diagonalization.  Every solve takes one route:
a start solve at u = min(1e-3, u) to _START_TOL, the continuation to
the target when it lies above, and a polish there to _LIEBWU_TOL.  The
start depends on the mode set alone for any target coupling at or
above 1e-3, so its seed ranking and start roots are memoized per mode
set and paid once per process.  Every failed solve raises NoConvergence.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence, Tuple

import numpy as np

from ._newton import (NoConvergence, PathCollision, SingularDenominator,
                      _log, _norms, _ratio, continue_path, solve_damped)
from .analytic_layer import SHELL_TOL, check_coupling, finite_roots, shell_gap, u_of_x

__all__ = [
    "HubbardSpec", "HubbardRoots", "LiebWuRoots",
    "nested_residuals", "solve_nested",
    "liebwu_residuals", "admissible_modes", "solve_liebwu", "energy_momentum",
    "u_of_x", "NoConvergence", "SingularDenominator",
]

_NESTED_TOL = 1e-13
_LIEBWU_TOL = 1e-13
# Target of the start solve at u_start and of every continuation step.
# A spin root between two nearly equal sin k_j has dF/dlambda ~ 4/u,
# so near u = 1e-3 one ulp of lambda moves the residual by about 2e-13
# and _LIEBWU_TOL can lie below the rounding floor.  Those points only
# seed the next Newton solve; the answer is polished at the target
# coupling to _LIEBWU_TOL.
_START_TOL = 1e-10
# Entries of each start-phase memo of solve_liebwu.  The 16 generated
# rounds of the ed_large benchmark workload fill about 230 of each.
_START_MEMO_SIZE = 1024


def _distinct(values: Sequence[complex], label: str) -> Tuple[complex, ...]:
    vals = tuple(map(complex, values))
    # The set shrinks only if two roots are equal or one NaN object is
    # listed twice; the pairwise == search then decides.
    if len(set(vals)) < len(vals):
        for a in range(len(vals)):
            for b in range(a + 1, len(vals)):
                if vals[a] == vals[b]:
                    raise ValueError(f"repeated {label} root {vals[a]}")
    return vals


def _coupling_scale(u_coupling: float) -> float:
    """2^-e for e the binary exponent of u when |u| >= 1, else 1.

    The product-form residuals and the counting Jacobian build their
    factors from the coupling and root differences times this scale: a
    power of two changes no rounding, and the scaled coupling lies in
    [0.5, 1), so no finite coupling makes them overflow.
    """
    if abs(u_coupling) < 1.0:
        return 1.0
    return math.ldexp(1.0, -math.frexp(u_coupling)[1])


@dataclass(frozen=True)
class HubbardSpec:
    """Coupling, optional inhomogeneity pairs, and twists.

    The number of pairs is len(yplus).  The twists are the diagonal
    parameters (tx, 1/tx) and (ty, 1/ty), both finite and nonzero; only
    tx/ty and ty**2 enter the equations.  The constructor checks the
    twists, that every root is finite and that every pair meets
    y+ + 1/y+ - y- - 1/y- = 2i/h to within analytic_layer.SHELL_TOL, but
    not |y| > 1: the homogeneous limit drives y- inside the unit disk.
    """

    hcoup: float
    yplus: Tuple[complex, ...] = ()
    yminus: Tuple[complex, ...] = ()
    twist_x: complex = 1.0 + 0.0j
    twist_y: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        check_coupling(self.hcoup)
        if not all(t and cmath.isfinite(t) for t in (self.twist_x, self.twist_y)):
            raise ValueError(f"twists must be finite and nonzero, "
                             f"got {self.twist_x} and {self.twist_y}")
        object.__setattr__(self, "yplus", finite_roots(self.yplus))
        object.__setattr__(self, "yminus", finite_roots(self.yminus))
        if len(self.yplus) != len(self.yminus):
            raise ValueError("yplus and yminus lengths differ")
        for yp, ym in zip(self.yplus, self.yminus):
            if shell_gap(self.hcoup, yp, ym) > SHELL_TOL:
                raise ValueError(f"pair ({yp}, {ym}) violates the shift constraint")


@dataclass(frozen=True)
class HubbardRoots:
    """Root lists of the three nested families."""

    x1e: Tuple[complex, ...] = ()
    u11: Tuple[complex, ...] = ()
    x112: Tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "x1e", _distinct(self.x1e, "x1e"))
        object.__setattr__(self, "u11", _distinct(self.u11, "u11"))
        object.__setattr__(self, "x112", _distinct(self.x112, "x112"))


@dataclass(frozen=True)
class LiebWuRoots:
    """Charge momenta k_j and spin rapidities lambda_j."""

    k: Tuple[complex, ...] = ()
    lam: Tuple[complex, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", _distinct(self.k, "momentum"))
        object.__setattr__(self, "lam", _distinct(self.lam, "rapidity"))


def nested_residuals(spec: HubbardSpec, roots: HubbardRoots) -> np.ndarray:
    """Log residuals of the three node equations, one entry per root.

    Order: first-sheet equations, middle-node equations, second-sheet
    equations.  The middle node is the self-excluded form with -1 on
    the right, so its residual is log(-product).
    """
    tx, ty = spec.twist_x, spec.twist_y
    u_first = [u_of_x(x, spec.hcoup) for x in roots.x1e]
    u_last = [u_of_x(x, spec.hcoup) for x in roots.x112]
    res = []
    for x, u in zip(roots.x1e, u_first):
        prod = tx / ty
        for yp, ym in zip(spec.yplus, spec.yminus):
            prod *= cmath.sqrt(ym / yp) * _ratio(yp - 1.0 / x, ym - 1.0 / x)
        for v in roots.u11:
            prod *= _ratio(u - v + 0.5j, u - v - 0.5j)
        res.append(_log(prod))
    for i, v in enumerate(roots.u11):
        prod = 1.0 / (ty * ty)
        for j, w in enumerate(roots.u11):
            if j != i:
                prod *= _ratio(v - w + 1.0j, v - w - 1.0j)
        for u in itertools.chain(u_first, u_last):
            prod *= _ratio(v - u - 0.5j, v - u + 0.5j)
        res.append(_log(-prod))
    for x, u in zip(roots.x112, u_last):
        prod = tx / ty
        for yp, ym in zip(spec.yplus, spec.yminus):
            prod *= cmath.sqrt(ym / yp) * _ratio(x - yp, x - ym)
        for v in roots.u11:
            prod *= _ratio(u - v + 0.5j, u - v - 0.5j)
        res.append(_log(prod))
    return np.array(res, dtype=complex)


def _nested_jacobian(spec: HubbardSpec, roots: HubbardRoots) -> np.ndarray:
    """Jacobian of nested_residuals in the roots, in the same order.

    Each residual is a sum of logs of ratios, so each entry is a sum of
    log-derivatives; an x root enters the middle node through its
    rapidity, with du/dx = h (1 - 1/x^2) / 2.
    """
    m_first, m_mid = len(roots.x1e), len(roots.u11)
    xs = roots.x1e + roots.x112
    us = [u_of_x(x, spec.hcoup) for x in xs]
    dudx = [spec.hcoup * (1.0 - 1.0 / (x * x)) / 2.0 for x in xs]
    size = len(xs) + m_mid
    jac = np.zeros((size, size), dtype=complex)
    # Row and column of each x root: the middle-node block sits between
    # the two sheets.
    slot = [i if i < m_first else i + m_mid for i in range(len(xs))]
    for i, (x, u) in enumerate(zip(xs, us)):
        row = slot[i]
        for yp, ym in zip(spec.yplus, spec.yminus):
            if i < m_first:
                # d/dx log(y - 1/x) = 1 / (x (x y - 1))
                jac[row, row] += 1.0 / (x * (x * yp - 1.0)) - 1.0 / (x * (x * ym - 1.0))
            else:
                jac[row, row] += 1.0 / (x - yp) - 1.0 / (x - ym)
        for b, v in enumerate(roots.u11):
            d = 1.0 / (u - v + 0.5j) - 1.0 / (u - v - 0.5j)
            jac[row, row] += dudx[i] * d
            jac[row, m_first + b] -= d
    for a, v in enumerate(roots.u11):
        row = m_first + a
        for b, w in enumerate(roots.u11):
            if b != a:
                d = 1.0 / (v - w + 1.0j) - 1.0 / (v - w - 1.0j)
                jac[row, row] += d
                jac[row, m_first + b] -= d
        for i, u in enumerate(us):
            d = 1.0 / (v - u - 0.5j) - 1.0 / (v - u + 0.5j)
            jac[row, row] += d
            jac[row, slot[i]] -= dudx[i] * d
    return jac


def solve_nested(spec: HubbardSpec, seed: HubbardRoots) -> HubbardRoots:
    """Damped Newton on the nested log residuals from a caller seed.

    The seed's list lengths fix the root count of each node.  A seed on a
    pole (x = 0 among them) raises SingularDenominator, a ValueError.
    """
    if 0 in seed.x1e + seed.x112:
        raise SingularDenominator("an x root at 0 sits at u = infinity")
    m_first, m_mid = len(seed.x1e), len(seed.u11)
    z0 = np.array(seed.x1e + seed.u11 + seed.x112, dtype=complex)
    if z0.size == 0:
        return HubbardRoots()

    def unpack(z: np.ndarray) -> HubbardRoots:
        return HubbardRoots(tuple(z[:m_first]),
                            tuple(z[m_first:m_first + m_mid]),
                            tuple(z[m_first + m_mid:]))

    def fun(z: np.ndarray) -> np.ndarray:
        return nested_residuals(spec, unpack(z))

    def jac(z: np.ndarray) -> np.ndarray:
        return _nested_jacobian(spec, unpack(z))

    return unpack(solve_damped(fun, jac, z0, tol=_NESTED_TOL))


def liebwu_residuals(lsites: int, u_coupling: float, roots: LiebWuRoots) -> np.ndarray:
    """Product-form log residuals: momentum family first, then spin family.

    Each ratio is formed from sin k, lambda and u scaled by
    _coupling_scale(u), and a ratio of two factors does not depend on
    their common scale.  Every residual thus has the value of the
    unscaled product wherever that one is finite (a zero part may change
    sign, which no magnitude sees), while lambda - mu +- 2iu, which
    overflows unscaled near the top of the float range, stays finite.
    _ratio's singular-factor guard applies to the scaled factors.
    """
    scale = _coupling_scale(u_coupling)
    iu, i2u = 1j * (u_coupling * scale), 2j * (u_coupling * scale)
    sins = [cmath.sin(k) * scale for k in roots.k]
    lams = [lam * scale for lam in roots.lam]
    res = []
    for k, sin_k in zip(roots.k, sins):
        prod = cmath.exp(-1j * lsites * k)
        for lam in lams:
            prod *= _ratio(sin_k - lam + iu, sin_k - lam - iu)
        res.append(_log(prod))
    for i, lam in enumerate(lams):
        prod = 1.0 + 0.0j
        for j, mu in enumerate(lams):
            if j != i:
                prod *= _ratio(lam - mu + i2u, lam - mu - i2u)
        for s in sins:
            prod *= _ratio(lam - s - iu, lam - s + iu)
        res.append(_log(prod))
    return np.array(res, dtype=complex)


def _counting_residuals(lsites: int, u_coupling: float,
                        mode_k: Sequence[int], mode_lam: Sequence[int],
                        z: np.ndarray) -> np.ndarray:
    n = len(mode_k)
    m = len(mode_lam)
    ks, lams = z[:n].tolist(), z[n:].tolist()
    out = np.empty(n + m)
    for j in range(n):
        val = lsites * ks[j] - 2.0 * math.pi * mode_k[j] - math.pi * m
        for lam in lams:
            val += 2.0 * math.atan((math.sin(ks[j]) - lam) / u_coupling)
        out[j] = val
    for a in range(m):
        val = math.pi * (m - 1 - n) - 2.0 * math.pi * mode_lam[a]
        for kk in ks:
            val += 2.0 * math.atan((lams[a] - math.sin(kk)) / u_coupling)
        for b in range(m):
            if b != a:
                # (lambda_a - lambda_b) / (2u) to the bit wherever the
                # difference and 2u are finite; halved first, neither
                # overflows.
                val -= 2.0 * math.atan((0.5 * lams[a] - 0.5 * lams[b]) / u_coupling)
        out[n + a] = val
    return out


def _counting_jacobian(lsites: int, u_coupling: float, n_charge: int,
                       z: np.ndarray) -> np.ndarray:
    """Jacobian of _counting_residuals in (k, lambda).

    With w_ja = 2u / (u^2 + (sin k_j - lambda_a)^2) and
    v_ab = 4u / (4u^2 + (lambda_a - lambda_b)^2): charge row j has
    L + cos k_j sum_a w_ja on its diagonal and -w_ja under lambda_a;
    spin row a has -cos k_j w_ja under k_j, v_ab under lambda_b != a,
    and sum_j w_ja - sum_{b != a} v_ab on its diagonal.

    Both weights are formed from u, sin k - lambda and the spin roots
    times _coupling_scale(u), and the result scaled back: neither u^2
    nor a difference of spin roots overflows for a finite coupling, and
    a power of two changes no rounding, so each weight has the bits of
    the unscaled formula wherever that one does not overflow.
    """
    scale = _coupling_scale(u_coupling)
    u_s = u_coupling * scale
    ks, lams = z[:n_charge].tolist(), z[n_charge:].tolist()
    jac = [[0.0] * z.size for _ in range(z.size)]
    for j, k in enumerate(ks):
        sin_k, cos_k = math.sin(k), math.cos(k)
        jac[j][j] = lsites
        for a, lam in enumerate(lams, n_charge):
            w = 2.0 * u_s / (u_s ** 2 + ((sin_k - lam) * scale) ** 2) * scale
            jac[j][j] += cos_k * w
            jac[j][a] = -w
            jac[a][j] = -cos_k * w
            jac[a][a] += w
    for a, lam_a in enumerate(lams, n_charge):
        for b, lam_b in enumerate(lams, n_charge):
            if b != a:
                v = 4.0 * u_s / (4.0 * u_s ** 2 + (lam_a * scale - lam_b * scale) ** 2) * scale
                jac[a][b] = v
                jac[a][a] -= v
    return np.array(jac)


def _lambda_seed_pool(sins: Sequence[float]) -> list:
    """Stationary points of prod (lam - sin k): interlacing spin seeds."""
    if len(sins) < 2:
        pool = []
    else:
        deriv = np.polyder(np.poly(np.asarray(sins, dtype=float)))
        pool = sorted(float(r.real) for r in np.roots(deriv))
    lo = min(sins, default=0.0) - 1.0
    hi = max(sins, default=0.0) + 1.0
    return pool + [0.0, lo, hi]


def _spin_modes(n_charge: int, m_spin: int) -> range:
    """The spin mode numbers J whose counting equation brackets a root.

    Sending a spin root to -inf or +inf pins its counting function at
    2 pi (M - 1 - N - J) and -2 pi J, so a root exists only for J
    strictly inside (M - 1 - N, 0): M - N <= J <= -1.  On the window's
    edge the root sits at infinity, an su(2) descendant rather than a
    regular Bethe state.
    """
    return range(m_spin - n_charge, 0)


def admissible_modes(lsites: int, n_charge: int, m_spin: int):
    """Mode sets (I, J) of a sector: charge modes modulo L, spin modes
    from the window of _spin_modes."""
    return itertools.product(
        itertools.combinations(range(lsites), n_charge),
        itertools.combinations(_spin_modes(n_charge, m_spin), m_spin),
    )


def _start_momenta(lsites: int, m_spin: int, mode_k: Sequence[int]) -> list:
    """Decoupled momenta (2 pi I + pi M) / L, where every homotopy starts."""
    return [(2.0 * math.pi * i + math.pi * m_spin) / lsites for i in mode_k]


@lru_cache(maxsize=_START_MEMO_SIZE)
def _ranked_spin_seeds(lsites: int, mode_k: Tuple[int, ...], mode_lam: Tuple[int, ...],
                       u_start: float) -> Tuple[Tuple[float, ...], ...]:
    """Distinct spin seeds of a mode set in increasing start residual.

    The seeds are M-subsets of _lambda_seed_pool at the decoupled
    momenta; sorted() is stable, so ties keep pool order.
    """
    m_spin = len(mode_lam)
    ks0 = _start_momenta(lsites, m_spin, mode_k)
    pool = _lambda_seed_pool([math.sin(k) for k in ks0])
    seeds = dict.fromkeys(tuple(round(pool[i], 12) for i in subset)
                          for subset in itertools.combinations(range(len(pool)), m_spin))

    def start_gap(lam0: Tuple[float, ...]) -> float:
        z0 = np.array(ks0 + list(lam0), dtype=float)
        return float(np.max(np.abs(_counting_residuals(lsites, u_start, mode_k,
                                                        mode_lam, z0))))

    return tuple(sorted(seeds, key=start_gap))


@lru_cache(maxsize=_START_MEMO_SIZE)
def _start_root(lsites: int, mode_k: Tuple[int, ...], mode_lam: Tuple[int, ...],
                u_start: float, lam0: Tuple[float, ...]) -> np.ndarray | float:
    """Counting-form root at u_start to _START_TOL from one spin seed, as
    a read-only array, or the best residual (a float) of a start solve
    that failed.

    The memo keeps no exception: one would hold its traceback's frames.
    """
    z0 = np.array(_start_momenta(lsites, len(mode_lam), mode_k) + list(lam0), dtype=float)
    try:
        z = solve_damped(partial(_counting_residuals, lsites, u_start, mode_k, mode_lam),
                         partial(_counting_jacobian, lsites, u_start, len(mode_k)),
                         z0, tol=_START_TOL)
    except NoConvergence as exc:
        return float(exc.residual)
    z.flags.writeable = False
    return z


def solve_liebwu(
    lsites: int,
    u_coupling: float,
    n_charge: int,
    m_spin: int,
    mode_k: Sequence[int],
    mode_lam: Sequence[int],
) -> LiebWuRoots:
    """Homotopy in the coupling plus damped Newton on the counting form.

    Mode numbers are integers (not bools): charge modes distinct modulo L
    (equal residues give equal momenta), spin modes distinct and inside
    the window M - N <= J <= -1 of _spin_modes; anything else raises
    ValueError, as does L < 2: the single-site Hamiltonian has no
    hopping, while energy_momentum counts -2 cos k for every charge
    root.  The modes fix the branch of every arctan sum.  Spin seeds are
    tried in increasing start residual.  Each is solved to _START_TOL at
    u_start = min(1e-3, u); above u_start the continuation follows
    continue_path's adaptive steps, the first of them the whole path,
    each solved to _START_TOL by a corrector that must halve the
    residual at every iteration, and drops a seed whose roots swap
    order.  The answer is then polished at u to _LIEBWU_TOL.  The
    returned roots satisfy the product-form residuals below 1e-12; when
    no seed gives such roots, NoConvergence names the best residual and
    counts the seeds whose path collided.

    Everything before the continuation, the seed ranking and each seed's
    start solve, is a function of (L, I, J, u_start) alone, and
    u_start = 1e-3 for every coupling at or above it.  Both are
    memoized per mode set (_ranked_spin_seeds, _start_root), so a mode
    set met again at another coupling goes straight to the continuation;
    start roots are read seed by seed, so a first solve does no more
    start work than the seeds it tries.
    """
    if any(isinstance(i, bool) for i in (*mode_k, *mode_lam)):
        raise ValueError("mode numbers must be integers, not bools")
    try:
        mode_k, mode_lam = tuple(map(operator.index, mode_k)), tuple(map(operator.index, mode_lam))
    except TypeError as exc:
        raise ValueError(f"mode numbers must be integers: {exc}") from None
    if lsites < 2:
        raise ValueError("need at least two sites: a single site has no hopping")
    if len(mode_k) != n_charge or len(mode_lam) != m_spin:
        raise ValueError("mode-number lists must match the root counts")
    if len({i % lsites for i in mode_k}) != n_charge:
        raise ValueError("charge mode numbers must be distinct modulo L")
    if len(set(mode_lam)) != m_spin:
        raise ValueError("spin mode numbers must be distinct")
    if not 0 <= m_spin <= n_charge:
        raise ValueError("spin count must satisfy 0 <= M <= N")
    window = _spin_modes(n_charge, m_spin)
    if not all(j in window for j in mode_lam):
        raise ValueError(f"spin mode numbers must lie in "
                         f"[{window.start}, {window.stop - 1}] (M - N to -1)")
    check_coupling(u_coupling)
    if n_charge == 0:
        return LiebWuRoots()

    u_start = min(1e-3, u_coupling)
    seeds = _ranked_spin_seeds(lsites, mode_k, mode_lam, u_start)
    groups = [range(n_charge), range(n_charge, n_charge + m_spin)]

    def fun_of_t(t: float, z: np.ndarray) -> np.ndarray:
        return _counting_residuals(lsites, t, mode_k, mode_lam, z)

    def jac_of_t(t: float, z: np.ndarray) -> np.ndarray:
        return _counting_jacobian(lsites, t, n_charge, z)

    last_error: Exception | None = None
    best = math.inf
    invalid = collided = 0
    for lam0 in seeds:
        try:
            z = _start_root(lsites, mode_k, mode_lam, u_start, lam0)
            if isinstance(z, float):
                raise NoConvergence(f"start solve at u={u_start} stalled at "
                                    f"residual {z:.3e}", z)
            if u_coupling > u_start:
                z = continue_path(fun_of_t, jac_of_t, u_start, u_coupling, z,
                                  tol=_START_TOL, collision_groups=groups)
            z = solve_damped(partial(fun_of_t, u_coupling),
                             partial(jac_of_t, u_coupling), z,
                             tol=_LIEBWU_TOL)
        except (NoConvergence, PathCollision) as exc:
            collided += isinstance(exc, PathCollision)
            best = min(best, getattr(exc, "residual", math.inf))
            last_error = exc
            continue
        flat = z.tolist()
        roots = LiebWuRoots(tuple(flat[:n_charge]), tuple(flat[n_charge:]))
        # _norms' max-norm is NaN when any entry is, so a non-finite
        # residual never passes.
        gap = _norms(liebwu_residuals(lsites, u_coupling, roots))[1]
        if gap < 1e-12:
            return roots
        invalid += 1
        last_error = NoConvergence(
            f"product-form residual {gap:.3e} at lambda seed {lam0}", gap)
        best = min(best, gap)
    raise NoConvergence(
        f"no spin seed converged for modes I={list(mode_k)}, J={list(mode_lam)}: "
        f"{collided} of {len(seeds)} seed paths collided, best residual {best:.3e} "
        f"over {len(seeds)} spin seeds, {invalid} of {len(seeds)} converged but "
        f"failed the product-form check", best,
    ) from last_error


def energy_momentum(lsites: int, u_coupling: float, roots: LiebWuRoots):
    """Energy and total momentum of a Lieb-Wu configuration.

    E = u (L - 2N) - 2 sum cos k, P = sum k mod 2 pi; both are reported
    real when the imaginary parts are negligible.  An energy that
    overflows raises ValueError.  Both sums are numpy's, whose pairwise
    order from four terms on a plain Python sum would not reproduce.
    """
    ks = np.array(roots.k, dtype=complex)
    energy = u_coupling * (lsites - 2 * ks.size) - 2.0 * complex(np.cos(ks).sum())
    if not cmath.isfinite(energy):
        raise ValueError(f"energy u (L - 2N) - 2 sum cos k overflows at u={u_coupling}, "
                         f"L={lsites}, N={ks.size}: {energy}")
    momentum = float(ks.sum().real) % (2.0 * math.pi)
    if abs(energy.imag) < 1e-9 * (1.0 + abs(energy.real)):
        return float(energy.real), momentum
    return energy, momentum
