"""Brute-force spectra of the small-chain Hubbard Hamiltonian.

The Hamiltonian on a periodic chain of L sites is

    H = - sum_{j=1..L, sigma} (c†_{j,sigma} c_{j+1,sigma} + h.c.)
        + u * sum_{j=1..L} (1 - 2 n_{j,up}) (1 - 2 n_{j,down}),

with site L+1 identified with site 1.  The bond sum is taken literally,
so L = 2 counts the same physical bond twice and doubles the hopping
amplitude; L = 1 has no neighbour distinct from the site itself and the
kinetic term drops out.  Fermionic modes are ordered with all spin-up
modes (site 0..L-1) before all spin-down modes, and an operator on mode
j picks up (-1)^{# occupied modes with smaller index}; with that
ordering the sector Hamiltonian is real symmetric.

Spectra come from LAPACK `eigh` behind a residual/orthogonality
certificate that a wrong eigensystem fails (see `spectrum`).  Trust in
the oracle rests on that certificate and on the closed-form checks of
the `ed` battery, not on avoiding library code.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Tuple

import numpy as np

# The L=8 half-filling block.  One BLAS thread, 2-core Xeon, at dimension
# 400, 1225 and 4900: build 0.16, 1.2 and 37 ms, `spectrum` 0.02, 0.45 and
# 28-30 s (peak RSS 0.95 GB); L=9 at half filling (15 876) would need ~8 GB.
_DIM_CAP = 4900
_CERT_TOL = 1e-10
# Single-species tables kept by `_species_blocks`: 27 species cover L <= 6.
_SPECIES_MEMO_SIZE = 32


class SectorTooLarge(ValueError):
    """Requested sector dimension exceeds the dense-oracle cap."""


def _sector_dim(lsites: int, n_up: int, n_down: int) -> int:
    if lsites < 1:
        raise ValueError("need at least one site")
    if not (0 <= n_up <= lsites and 0 <= n_down <= lsites):
        raise ValueError(f"occupations ({n_up},{n_down}) outside 0..{lsites}")
    return math.comb(lsites, n_up) * math.comb(lsites, n_down)


def _parity_below(mask: int, j: int) -> int:
    return bin(mask & ((1 << j) - 1)).count("1") & 1


def _apply_hop(mask: int, src: int, dst: int):
    """c†_dst c_src on a single-species mask; (new_mask, sign) or None."""
    if not (mask >> src) & 1:
        return None
    removed = mask & ~(1 << src)
    if (removed >> dst) & 1:
        return None
    sign = -1 if (_parity_below(mask, src) ^ _parity_below(removed, dst)) else 1
    return removed | (1 << dst), sign


@lru_cache(maxsize=_SPECIES_MEMO_SIZE)
def _species_blocks(lsites: int, count: int, apply_hop: Callable):
    """Read-only tables (rows, cols, values, S) of `count` fermions of one
    species, in the basis of ascending masks.

    T[rows, cols] = values are the nonzero entries of the hopping matrix
    (column = source state); a hop met twice, on the two bonds of L = 2,
    is summed in loop order.  S[i, j] = 1 - 2 n_j.  The dense C(L, count)²
    block is never formed.  `apply_hop` is the hop kernel and part of the
    memo key, so a patched kernel builds afresh.  The memo holds at most
    _SPECIES_MEMO_SIZE entries of O(C(L, count) L) numbers each.
    """
    masks = sorted(sum(1 << j for j in occ)
                   for occ in itertools.combinations(range(lsites), count))
    index = {mask: i for i, mask in enumerate(masks)}
    bonds = [(j, (j + 1) % lsites) for j in range(lsites) if (j + 1) % lsites != j]
    hops: dict = {}
    for i, mask in enumerate(masks):
        for a, b in bonds:
            for src, dst in ((b, a), (a, b)):
                moved = apply_hop(mask, src, dst)
                if moved is not None:
                    entry = (index[moved[0]], i)
                    hops[entry] = hops.get(entry, 0.0) - moved[1]
    rows = np.array([r for r, _ in hops], dtype=np.intp)
    cols = np.array([c for _, c in hops], dtype=np.intp)
    values = np.array(list(hops.values()), dtype=float)
    signs = np.array([[1 - 2 * ((mask >> j) & 1) for j in range(lsites)]
                      for mask in masks], dtype=float)
    for table in (rows, cols, values, signs):
        table.flags.writeable = False
    return rows, cols, values, signs


def build_hamiltonian(lsites: int, u_coupling: float,
                      sector: Tuple[int, int]) -> np.ndarray:
    """Dense real-symmetric Hamiltonian block of one occupation sector.

    The basis is product(ups, downs) of the ascending up and down masks
    (bit j = occupation of site j).  A hop's sign counts the occupied
    modes it passes.  All modes of the other species lie before both of
    its end points (a down hop) or after them (an up hop), so they enter
    twice or not at all and cancel: the sign depends on its own species
    only.  The block is therefore the Kronecker sum

        H = T_up ⊗ I + I ⊗ T_down + u diag((S_up S_downᵀ).ravel())

    of the single-species tables of `_species_blocks`, memoized per
    (L, count, hop kernel) with at most _SPECIES_MEMO_SIZE entries (every
    (L, count) with L <= 6 fits); the kernel is `_apply_hop` as the module
    holds it at call time.  Each hopping term is written, once for all
    spectator states, through a diagonal view of the (up, down, up, down)
    reshape of H, with no dim² temporary.  A coupling whose diagonal
    u (S_up S_downᵀ) overflows raises ValueError.
    """
    if not math.isfinite(u_coupling):
        raise ValueError("coupling must be finite")
    n_up, n_down = sector
    dim = _sector_dim(lsites, n_up, n_down)
    if dim > _DIM_CAP:
        raise SectorTooLarge(f"sector dimension {dim} exceeds cap {_DIM_CAP}")
    rows, cols, values, signs_up = _species_blocks(lsites, n_up, _apply_hop)
    ham = np.zeros((dim, dim))
    blocks = ham.reshape(2 * (len(signs_up), dim // len(signs_up)))
    # No hop is diagonal, so the two writes touch disjoint entries.
    # [k, i, j] is H[(i, k), (j, k)]: T_up, once per down state k.
    np.einsum("ikjk->kij", blocks)[:, rows, cols] = values
    rows, cols, values, signs_down = _species_blocks(lsites, n_down, _apply_hop)
    # [i, k, l] is H[(i, k), (i, l)]: T_down, once per up state i.
    np.einsum("ikil->ikl", blocks)[:, rows, cols] = values
    with np.errstate(over="ignore"):
        diagonal = u_coupling * (signs_up @ signs_down.T).ravel()
    if not np.isfinite(diagonal).all():
        raise ValueError(f"coupling {u_coupling} overflows the diagonal of the L={lsites} "
                         f"sector ({n_up}, {n_down})")
    ham.reshape(-1)[::dim + 1] += diagonal
    return ham


def spectrum(ham: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric matrix, certified.

    With (Lambda, V) from `eigh` and s = max(1, max|H_ij|), the values
    are returned only if ||HV - V Lambda||_F <= 1e-10 s and
    ||V^T V - I||_F <= 1e-10; otherwise ArithmeticError.  By Weyl's
    inequality that pins every sorted eigenvalue, with multiplicity, to
    about 1e-10 s.  The residual is formed from H/s and Lambda/s, the
    same inequality, so its norm cannot overflow at a large coupling.
    """
    a = np.asarray(ham, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    vals, vecs = np.linalg.eigh(a)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    resid = (a / scale) @ vecs
    resid -= vecs * (vals / scale)
    residual = math.sqrt(np.vdot(resid, resid))
    gram = vecs.T @ vecs
    gram.flat[::len(gram) + 1] -= 1.0
    orthogonality = math.sqrt(np.vdot(gram, gram))
    if not (residual <= _CERT_TOL and orthogonality <= _CERT_TOL):
        raise ArithmeticError(
            f"eigh certificate failed: residual {residual:.3e} in units of {scale:.3e}"
            f" (bound {_CERT_TOL:.1e}), orthogonality {orthogonality:.3e}"
            f" (bound {_CERT_TOL:.1e})")
    return vals


@dataclass(frozen=True)
class MatchReport:
    """Nearest-eigenvalue match of a candidate energy list against an oracle."""

    tol: float
    energies: Tuple[float, ...]
    nearest: Tuple[float, ...]
    gaps: Tuple[float, ...]
    passed: bool

    @property
    def max_gap(self) -> float:
        return max(self.gaps) if self.gaps else 0.0


def _unique_nearest(ordered: list, slot: int, x: float) -> float | None:
    """The level of `ordered` (ascending) nearest x, listed first among
    equal levels, or None unless it is the only nearest distinct level.

    `slot` is the left insertion point of x.  Rounded distances |l - x|
    do not increase up to x and do not decrease after it, so the nearest
    level is one of the two at `slot`, and it is the only one if each
    next distinct level outward lies strictly farther.  A NaN distance
    is never strictly smaller, so it gives None.
    """
    size = len(ordered)
    lower = abs(ordered[slot - 1] - x) if slot > 0 else math.inf
    upper = abs(ordered[slot] - x) if slot < size else math.inf
    if upper < lower:
        first, gap = slot, upper
        beyond = bisect.bisect_right(ordered, ordered[slot], slot)
        outer = ordered[beyond] if beyond < size else None
    elif lower < upper:
        first, gap = bisect.bisect_left(ordered, ordered[slot - 1], 0, slot), lower
        outer = ordered[first - 1] if first > 0 else None
    else:
        return None
    if outer is not None and not abs(outer - x) > gap:
        return None
    return ordered[first]


def match_spectrum(
    bethe_energies: Sequence[complex],
    ed_energies: Sequence[float],
    tol: float,
) -> MatchReport:
    """One-directional match: every candidate needs an oracle level within tol.

    A complex candidate is matched by its real part, and its gap |E - level|
    keeps the imaginary part, so a non-real energy fails; `energies` holds
    the real parts.  `nearest` holds the level closest to the real part,
    and of equidistant levels the one listed first.  Each candidate is
    found by bisection in the sorted levels; one with more than one
    nearest distinct level (a tie, or a NaN or infinite distance) is
    matched by a scan of the levels in their given order instead.
    """
    cands = [complex(e) for e in bethe_energies]
    levels = np.asarray(ed_energies, dtype=float)
    if cands and levels.size == 0:
        raise ValueError("cannot match against an empty oracle spectrum")
    # sorted() is stable, so equal levels (0.0 and -0.0 among them) keep
    # their given order.  A NaN level, which no order holds, makes the
    # sum NaN (so do levels of both infinite signs) and leaves every
    # candidate to the scan.
    ordered = sorted(levels.tolist())
    sortable = not math.isnan(sum(ordered))
    nearest = []
    gaps = []
    for e in cands:
        level = None
        if sortable:
            level = _unique_nearest(ordered, bisect.bisect_left(ordered, e.real), e.real)
        if level is None:
            level = float(levels[int(np.argmin(np.abs(levels - e.real)))])
        nearest.append(level)
        gaps.append(abs(e - level))
    passed = all(g < tol for g in gaps)
    return MatchReport(tol, tuple(e.real for e in cands), tuple(nearest),
                       tuple(gaps), passed)
