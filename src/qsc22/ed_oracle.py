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

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

# The L=8 half-filling block.  One BLAS thread, 2-core Xeon: `spectrum`
# took 0.03 s at dimension 400, 0.66 s at 1225, 18 s at 3920 and 37 s at
# 4900 (peak RSS 0.98 GB); L=9 at half filling (15 876) would need ~8 GB.
_DIM_CAP = 4900
_CERT_TOL = 1e-10


class SectorTooLarge(ValueError):
    """Requested sector dimension exceeds the dense-oracle cap."""


@dataclass(frozen=True)
class FockSector:
    """Occupation-number basis of a fixed (n_up, n_down) block.

    States are (up_mask, down_mask) bit pairs, bit j = occupation of
    site j, listed in lexicographic order of the integer pair.
    """

    lsites: int
    n_up: int
    n_down: int
    basis: Tuple[Tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def _sector_dim(lsites: int, n_up: int, n_down: int) -> int:
    if lsites < 1:
        raise ValueError("need at least one site")
    if not (0 <= n_up <= lsites and 0 <= n_down <= lsites):
        raise ValueError(f"occupations ({n_up},{n_down}) outside 0..{lsites}")
    return math.comb(lsites, n_up) * math.comb(lsites, n_down)


def fock_sector(lsites: int, n_up: int, n_down: int) -> FockSector:
    """Enumerate the sector basis in lexicographic (up, down) order."""
    _sector_dim(lsites, n_up, n_down)
    ups, downs = (
        sorted(sum(1 << j for j in occ)
               for occ in itertools.combinations(range(lsites), n))
        for n in (n_up, n_down))
    return FockSector(lsites, n_up, n_down, tuple(itertools.product(ups, downs)))


def _parity_below(mask: int, j: int) -> int:
    return bin(mask & ((1 << j) - 1)).count("1") & 1


def _apply_hop(mask: int, src: int, dst: int):
    """c†_dst c_src on a single-species mask; (new_mask, sign) or None.

    Signs from the in-species mode count suffice: the cross-species
    contributions of the chosen global ordering cancel pairwise for any
    number-conserving single-species move.
    """
    if not (mask >> src) & 1:
        return None
    removed = mask & ~(1 << src)
    if (removed >> dst) & 1:
        return None
    sign = -1 if (_parity_below(mask, src) ^ _parity_below(removed, dst)) else 1
    return removed | (1 << dst), sign


def build_hamiltonian(lsites: int, u_coupling: float,
                      sector: Tuple[int, int]) -> np.ndarray:
    """Dense real-symmetric Hamiltonian block of one occupation sector."""
    if not math.isfinite(u_coupling):
        raise ValueError("coupling must be finite")
    n_up, n_down = sector
    dim = _sector_dim(lsites, n_up, n_down)
    if dim > _DIM_CAP:
        raise SectorTooLarge(f"sector dimension {dim} exceeds cap {_DIM_CAP}")
    sec = fock_sector(lsites, n_up, n_down)
    index = {state: i for i, state in enumerate(sec.basis)}
    ham = np.zeros((sec.dim, sec.dim))
    bonds = [(j, (j + 1) % lsites) for j in range(lsites) if (j + 1) % lsites != j]
    for i, (up, down) in enumerate(sec.basis):
        diag = 0.0
        for j in range(lsites):
            diag += (1 - 2 * ((up >> j) & 1)) * (1 - 2 * ((down >> j) & 1))
        ham[i, i] += u_coupling * diag
        for a, b in bonds:
            for src, dst in ((b, a), (a, b)):
                hop = _apply_hop(up, src, dst)
                if hop is not None:
                    ham[index[(hop[0], down)], i] -= hop[1]
                hop = _apply_hop(down, src, dst)
                if hop is not None:
                    ham[index[(up, hop[0])], i] -= hop[1]
    return ham


def spectrum(ham: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric matrix, certified.

    With (Lambda, V) from `eigh` and s = max(1, max|H_ij|), the values
    are returned only if ||HV - V Lambda||_F <= 1e-10 s and
    ||V^T V - I||_F <= 1e-10; otherwise ArithmeticError.  By Weyl's
    inequality that pins every sorted eigenvalue, with multiplicity, to
    about 1e-10 s.
    """
    a = np.asarray(ham, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    vals, vecs = np.linalg.eigh(a)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    resid = a @ vecs
    resid -= vecs * vals
    residual = float(np.linalg.norm(resid))
    gram = vecs.T @ vecs
    gram[np.diag_indices_from(gram)] -= 1.0
    orthogonality = float(np.linalg.norm(gram))
    if not (residual <= _CERT_TOL * scale and orthogonality <= _CERT_TOL):
        raise ArithmeticError(
            f"eigh certificate failed: residual {residual:.3e} (bound {_CERT_TOL * scale:.1e}),"
            f" orthogonality {orthogonality:.3e} (bound {_CERT_TOL:.1e})")
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


def match_spectrum(
    bethe_energies: Sequence[complex],
    ed_energies: Sequence[float],
    tol: float,
) -> MatchReport:
    """One-directional match: every candidate needs an oracle level within tol.

    A complex candidate is matched by its real part, and its gap |E - level|
    keeps the imaginary part, so a non-real energy fails; `energies` holds
    the real parts.
    """
    cands = [complex(e) for e in bethe_energies]
    levels = np.asarray(ed_energies, dtype=float)
    if cands and levels.size == 0:
        raise ValueError("cannot match against an empty oracle spectrum")
    nearest = []
    gaps = []
    for e in cands:
        level = float(levels[int(np.argmin(np.abs(levels - e.real)))])
        nearest.append(level)
        gaps.append(abs(e - level))
    passed = all(g < tol for g in gaps)
    return MatchReport(tol, tuple(e.real for e in cands), tuple(nearest),
                       tuple(gaps), passed)
