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

Spectra come from a cyclic Jacobi diagonalization, deliberately
independent of library eigensolvers so the module can serve as a
ground-truth oracle for the Bethe solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ._newton import NoConvergence

_SWEEP_CAP = 64


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


def fock_sector(lsites: int, n_up: int, n_down: int) -> FockSector:
    """Enumerate the sector basis in lexicographic (up, down) order."""
    if lsites < 1:
        raise ValueError("need at least one site")
    if not (0 <= n_up <= lsites and 0 <= n_down <= lsites):
        raise ValueError(f"occupations ({n_up},{n_down}) outside 0..{lsites}")
    ups = [m for m in range(1 << lsites) if bin(m).count("1") == n_up]
    downs = [m for m in range(1 << lsites) if bin(m).count("1") == n_down]
    basis = tuple((u, d) for u in ups for d in downs)
    expect = math.comb(lsites, n_up) * math.comb(lsites, n_down)
    assert len(basis) == expect
    return FockSector(lsites, n_up, n_down, basis)


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


def build_hamiltonian(
    lsites: int,
    u_coupling: float,
    sector: Tuple[int, int],
    *,
    dim_cap: int = 20_000,
) -> np.ndarray:
    """Dense real-symmetric Hamiltonian block of one occupation sector."""
    n_up, n_down = sector
    sec = fock_sector(lsites, n_up, n_down)
    if sec.dim > dim_cap:
        raise SectorTooLarge(f"sector dimension {sec.dim} exceeds cap {dim_cap}")
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
    """Ascending eigenvalues via cyclic Jacobi rotations.

    Sweeps run until the largest off-diagonal entry drops below
    1e-12 * max|entry|; more than _SWEEP_CAP (64) sweeps raise
    NoConvergence.
    """
    a = np.array(ham, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("square matrix required")
    n = a.shape[0]
    if n <= 1:
        return a.reshape(-1).copy() if n else np.zeros(0)
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return np.zeros(n)
    target = 1e-12 * scale
    for _ in range(_SWEEP_CAP):
        strip = np.abs(a - np.diag(np.diag(a)))
        if float(strip.max()) < target:
            return np.sort(np.diag(a).copy())
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 0.1 * target:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
    raise NoConvergence(f"off-diagonal still {float(strip.max()):.3e} after {_SWEEP_CAP} sweeps")


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
    bethe_energies: Sequence[float],
    ed_energies: Sequence[float],
    tol: float,
) -> MatchReport:
    """One-directional match: every candidate needs an oracle level within tol."""
    cands = [float(e) for e in bethe_energies]
    levels = np.asarray([float(e) for e in ed_energies])
    if cands and levels.size == 0:
        raise ValueError("cannot match against an empty oracle spectrum")
    nearest = []
    gaps = []
    for e in cands:
        j = int(np.argmin(np.abs(levels - e)))
        nearest.append(float(levels[j]))
        gaps.append(abs(float(levels[j]) - e))
    passed = all(g < tol for g in gaps)
    return MatchReport(tol, tuple(cands), tuple(nearest), tuple(gaps), passed)


def sector_table(lsites: int):
    """All (n_up, n_down) sectors of an L-site chain."""
    return [(a, b) for a in range(lsites + 1) for b in range(lsites + 1)]
