"""Dense diagonalization oracle for the lattice Hamiltonian."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from qsc22 import ed_oracle
from qsc22.ed_oracle import (
    SectorTooLarge,
    build_hamiltonian,
    match_spectrum,
    spectrum,
)

COUPLINGS = (0.0, 0.37, 1.0, 2.9, -1.3)


def _masks(lsites, count):
    return sorted(sum(1 << j for j in occ)
                  for occ in itertools.combinations(range(lsites), count))


def _per_state_hamiltonian(lsites, u_coupling, sector):
    """The per-state loop over basis states, bonds, directions and species
    that `build_hamiltonian` replaced, kept as its reference."""
    basis = list(itertools.product(*(_masks(lsites, n) for n in sector)))
    index = {state: i for i, state in enumerate(basis)}
    ham = np.zeros((len(basis), len(basis)))
    bonds = [(j, (j + 1) % lsites) for j in range(lsites) if (j + 1) % lsites != j]
    for i, (up, down) in enumerate(basis):
        diag = 0.0
        for j in range(lsites):
            diag += (1 - 2 * ((up >> j) & 1)) * (1 - 2 * ((down >> j) & 1))
        ham[i, i] += u_coupling * diag
        for a, b in bonds:
            for src, dst in ((b, a), (a, b)):
                hop = ed_oracle._apply_hop(up, src, dst)
                if hop is not None:
                    ham[index[(hop[0], down)], i] -= hop[1]
                hop = ed_oracle._apply_hop(down, src, dst)
                if hop is not None:
                    ham[index[(up, hop[0])], i] -= hop[1]
    return ham


@pytest.mark.parametrize("lsites", range(1, 8))
def test_kronecker_sum_equals_the_per_state_loop(lsites):
    # Every sector up to L = 6; at L = 7 those of dimension <= 1300.
    for sector in itertools.product(range(lsites + 1), repeat=2):
        if math.comb(lsites, sector[0]) * math.comb(lsites, sector[1]) > 1300:
            continue
        for coupling in COUPLINGS:
            assert np.array_equal(build_hamiltonian(lsites, coupling, sector),
                                  _per_state_hamiltonian(lsites, coupling, sector))


def test_every_build_reads_the_hop_kernel(monkeypatch):
    before = build_hamiltonian(4, 0.7, (2, 2))
    apply_hop = ed_oracle._apply_hop

    def bosonic(mask, src, dst):
        hop = apply_hop(mask, src, dst)
        return None if hop is None else (hop[0], 1)

    monkeypatch.setattr(ed_oracle, "_apply_hop", bosonic)
    assert not np.array_equal(build_hamiltonian(4, 0.7, (2, 2)), before)


def test_the_species_memo_never_serves_a_stale_block(monkeypatch):
    # The hop kernel is part of the memo key: a build under a patched
    # kernel reads that kernel, and the next build under the real one
    # gets the blocks it had before.
    cases = ((3, (2, 1)), (4, (2, 2)), (5, (2, 1)))
    fermionic = [build_hamiltonian(lsites, 0.7, sector) for lsites, sector in cases]
    apply_hop = ed_oracle._apply_hop

    def bosonic(mask, src, dst):
        hop = apply_hop(mask, src, dst)
        return None if hop is None else (hop[0], 1)

    with monkeypatch.context() as patch:
        patch.setattr(ed_oracle, "_apply_hop", bosonic)
        for (lsites, sector), before in zip(cases, fermionic):
            ham = build_hamiltonian(lsites, 0.7, sector)
            assert np.array_equal(ham, _per_state_hamiltonian(lsites, 0.7, sector))
            assert not np.array_equal(ham, before)
    for (lsites, sector), before in zip(cases, fermionic):
        assert build_hamiltonian(lsites, 0.7, sector).tobytes() == before.tobytes()


def test_the_species_memo_is_read_only_and_bounded():
    for table in ed_oracle._species_blocks(4, 2, ed_oracle._apply_hop):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    species = [(lsites, count) for lsites in range(1, 9) for count in range(lsites + 1)]
    assert len(species) > ed_oracle._SPECIES_MEMO_SIZE
    for lsites, count in species:
        build_hamiltonian(lsites, 1.0, (count, 0))
    assert ed_oracle._species_blocks.cache_info().currsize <= ed_oracle._SPECIES_MEMO_SIZE


def test_sector_dimensions():
    for lsites in (1, 2, 3, 4):
        total = 0
        for n_up, n_down in itertools.product(range(lsites + 1), repeat=2):
            dim = len(build_hamiltonian(lsites, 1.0, (n_up, n_down)))
            assert dim == math.comb(lsites, n_up) * math.comb(lsites, n_down)
            total += dim
        assert total == 4 ** lsites


def test_basis_is_ordered_and_consistent():
    # The basis is product(ups, downs) of ascending masks: the u term on
    # the diagonal reads each state's occupations in that order.
    basis = itertools.product(_masks(3, 2), _masks(3, 1))
    expected = [sum((1 - 2 * ((up >> j) & 1)) * (1 - 2 * ((down >> j) & 1))
                    for j in range(3)) for up, down in basis]
    assert np.diag(build_hamiltonian(3, 1.0, (2, 1))).tolist() == expected


def test_hamiltonian_is_real_symmetric():
    for lsites, sector in ((2, (1, 1)), (3, (2, 1)), (4, (2, 2))):
        ham = build_hamiltonian(lsites, 0.7, sector)
        assert ham.dtype.kind == "f"
        assert np.array_equal(ham, ham.T)


def test_single_site_has_no_hopping():
    for sector, value in (((0, 0), 1.5), ((1, 0), -1.5), ((1, 1), 1.5)):
        ham = build_hamiltonian(1, 1.5, sector)
        assert ham.shape == (1, 1)
        assert ham[0, 0] == pytest.approx(value)


def test_frozen_two_site_single_fermion_sector():
    ham = build_hamiltonian(2, 1.0, (1, 0))
    eigs = spectrum(ham)
    assert np.allclose(eigs, [-2.0, 2.0], atol=1e-12)


def test_trace_matches_eigenvalue_sum():
    for lsites, coupling, sector in ((2, 1.0, (1, 1)), (3, 0.5, (2, 1)),
                                     (4, 2.0, (2, 1))):
        ham = build_hamiltonian(lsites, coupling, sector)
        eigs = spectrum(ham)
        assert abs(np.trace(ham) - np.sum(eigs)) < 1e-9 * max(1.0, np.abs(ham).sum())


def test_spin_swap_symmetry():
    for lsites, coupling in ((3, 1.0), (4, 0.5)):
        a = spectrum(build_hamiltonian(lsites, coupling, (2, 1)))
        b = spectrum(build_hamiltonian(lsites, coupling, (1, 2)))
        assert np.allclose(a, b, atol=1e-10)


def test_spectrum_against_numpy():
    for lsites, coupling, sector in ((3, 1.0, (2, 1)), (4, 0.5, (2, 2))):
        ham = build_hamiltonian(lsites, coupling, sector)
        mine = spectrum(ham)
        ref = np.linalg.eigvalsh(ham)
        assert np.allclose(mine, ref, atol=1e-10)


def test_spectrum_is_sorted():
    eigs = spectrum(build_hamiltonian(3, 1.0, (1, 1)))
    assert np.all(np.diff(eigs) >= -1e-12)


def test_match_spectrum_reports_gaps():
    ham = build_hamiltonian(2, 1.0, (1, 0))
    rep = match_spectrum([-2.0, 2.0], spectrum(ham), 1e-8)
    assert rep.passed
    assert rep.max_gap < 1e-12
    rep_bad = match_spectrum([-2.0, 2.5], spectrum(ham), 1e-8)
    assert not rep_bad.passed
    assert rep_bad.nearest[1] == pytest.approx(2.0)
    rep_complex = match_spectrum([-2.0, 2.0 + 1e-3j], spectrum(ham), 1e-8)
    assert not rep_complex.passed
    assert rep_complex.energies == (-2.0, 2.0)
    assert rep_complex.nearest == (-2.0, 2.0)
    assert rep_complex.gaps[1] == pytest.approx(1e-3)


def _scanned_match(candidates, levels, tol):
    """match_spectrum as one argmin scan per candidate, first written so."""
    cands = [complex(e) for e in candidates]
    levels = np.asarray(levels, dtype=float)
    nearest = [float(levels[int(np.argmin(np.abs(levels - e.real)))]) for e in cands]
    gaps = [abs(e - level) for e, level in zip(cands, nearest)]
    return (tuple(map(repr, (e.real for e in cands))), tuple(map(repr, nearest)),
            tuple(map(repr, gaps)), all(g < tol for g in gaps))


def _as_reprs(report):
    return (tuple(map(repr, report.energies)), tuple(map(repr, report.nearest)),
            tuple(map(repr, report.gaps)), report.passed)


def test_match_spectrum_reads_an_unsorted_oracle():
    levels = [3.0, -1.0, 2.0, 0.5]
    report = match_spectrum([2.1, -0.9, 0.4, 9.0], levels, 0.2)
    assert report.nearest == (2.0, -1.0, 0.5, 3.0)
    assert not report.passed
    assert _as_reprs(report) == _scanned_match([2.1, -0.9, 0.4, 9.0], levels, 0.2)


def test_match_spectrum_takes_the_first_listed_of_equidistant_levels():
    assert match_spectrum([1.5], [1.0, 2.0], 1.0).nearest == (1.0,)
    assert match_spectrum([1.5], [2.0, 1.0], 1.0).nearest == (2.0,)
    # Distances tie once rounded: 1e16 - 0.5 and 1e16 - 1 are both 1e16.
    assert match_spectrum([1e16], [0.5, 1.0], 1.0).nearest == (0.5,)
    assert match_spectrum([1e16], [1.0, 0.5], 1.0).nearest == (1.0,)
    # An infinite candidate is equally far from every finite level.
    assert match_spectrum([math.inf], [2.0, -1.0], 1.0).nearest == (2.0,)


def test_match_spectrum_on_degenerate_levels_keeps_the_first_listed():
    report = match_spectrum([0.0, 1.0], [-0.0, 0.0, 1.0, 1.0], 1e-8)
    assert report.passed and report.nearest == (0.0, 1.0)
    assert math.copysign(1.0, report.nearest[0]) == -1.0
    report = match_spectrum([0.0], [0.0, -0.0], 1e-8)
    assert math.copysign(1.0, report.nearest[0]) == 1.0


def test_match_spectrum_gap_keeps_the_imaginary_part():
    report = match_spectrum([2.0 + 1e-3j, -1.0 - 2e-9j], [-1.0, 2.0], 1e-8)
    assert report.energies == (2.0, -1.0)
    assert report.nearest == (2.0, -1.0)
    assert report.gaps == (1e-3, 2e-9)
    assert not report.passed


def test_match_spectrum_needs_levels_for_its_candidates():
    with pytest.raises(ValueError, match="empty oracle"):
        match_spectrum([1.0], [], 1e-8)
    report = match_spectrum([], [], 1e-8)
    assert report.passed and report.gaps == () and report.max_gap == 0.0


def test_match_spectrum_agrees_with_the_argmin_scan():
    # Random oracles and candidates over a small pool of values, so that
    # ties, repeats, signed zeros, infinities and NaN all occur.
    pool = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 0.25, 1e16, 1e16 + 2.0,
            math.inf, -math.inf, math.nan]
    extra = [1.5, 0.75, 1e16 + 1.0, complex(1.0, 0.5), complex(math.nan, 1.0)]
    rng = np.random.default_rng(34)
    with np.errstate(invalid="ignore"):
        for _ in range(3000):
            levels = [pool[i] for i in rng.integers(0, len(pool), rng.integers(1, 9))]
            if rng.random() < 0.5:
                levels.sort()
            cands = [(pool + extra)[i]
                     for i in rng.integers(0, len(pool) + len(extra), rng.integers(0, 5))]
            assert _as_reprs(match_spectrum(cands, levels, 1e-8)) == _scanned_match(
                cands, levels, 1e-8), (cands, levels)


def test_dimension_cap():
    with pytest.raises(SectorTooLarge):
        build_hamiltonian(12, 1.0, (6, 6))


def test_small_sector_of_a_long_chain():
    ham = build_hamiltonian(40, 1.0, (1, 0))
    assert ham.shape == (40, 40)
    eigs = spectrum(ham)
    assert eigs.shape == (40,)


def _shift_value(vals, vecs):
    vals = vals.copy()
    vals[0] += 1e-6
    return vals, vecs


def _swap_columns(vals, vecs):
    return vals, vecs[:, [1, 0] + list(range(2, vecs.shape[1]))]


def _duplicate_pair(vals, vecs):
    vals, vecs = vals.copy(), vecs.copy()
    vals[1], vecs[:, 1] = vals[0], vecs[:, 0]
    return vals, vecs


@pytest.mark.parametrize("mutate", [_shift_value, _swap_columns, _duplicate_pair])
def test_certificate_rejects_a_wrong_eigensystem(monkeypatch, mutate):
    ham = build_hamiltonian(4, 0.7, (2, 2))
    eigs = spectrum(ham)
    assert eigs[1] - eigs[0] > 0.1
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: mutate(*eigh(a)))
    with pytest.raises(ArithmeticError, match="certificate"):
        spectrum(ham)


def test_sector_validation():
    for lsites, sector in ((2, (3, 0)), (2, (0, -1)), (0, (0, 0))):
        with pytest.raises(ValueError):
            build_hamiltonian(lsites, 1.0, sector)
    for coupling in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            build_hamiltonian(2, coupling, (1, 0))
