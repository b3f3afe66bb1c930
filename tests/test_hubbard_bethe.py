"""Nested and Lieb-Wu Bethe solvers against closed forms and the oracle."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from qsc22 import _newton, ed_oracle
from qsc22 import hubbard_bethe as hb
from qsc22._newton import NoConvergence, PathCollision, bisect_real
from qsc22.acceptance import _liebwu_grid_cases, match_sector
from qsc22.analytic_layer import shell_pairs
from qsc22.hubbard_bethe import (
    HubbardRoots,
    HubbardSpec,
    LiebWuRoots,
    admissible_modes,
    energy_momentum,
    liebwu_residuals,
    nested_residuals,
    solve_liebwu,
    solve_nested,
    u_of_x,
)


def _reference_spec() -> HubbardSpec:
    yplus, yminus = shell_pairs(1.0, [0.7, -0.7])
    return HubbardSpec(1.0, yplus, yminus,
                       twist_x=cmath.exp(0.3j), twist_y=cmath.exp(-0.2j))


def test_u_of_x_matches_the_shell():
    yplus, yminus = shell_pairs(1.0, [0.7, -0.7])
    assert abs(u_of_x(yplus[0], 1.0) - (0.7 + 0.5j)) < 1e-12
    assert abs(u_of_x(yminus[0], 1.0) - (0.7 - 0.5j)) < 1e-12


def test_spec_validation():
    with pytest.raises(ValueError):
        HubbardSpec(1.0, (2.0 + 1.0j,), (1.5 - 2.0j,))
    with pytest.raises(ValueError):
        HubbardSpec(1.0, (0.3 + 0.2j,), (0.4 - 0.9j,))
    with pytest.raises(ValueError):
        HubbardSpec(-1.0)
    # json.load reads NaN and Infinity, so a twist may arrive non-finite.
    for twist in (0.0, math.nan, math.inf, complex(0.0, -math.inf)):
        with pytest.raises(ValueError, match="finite and nonzero"):
            HubbardSpec(1.0, twist_x=twist)
        with pytest.raises(ValueError, match="finite and nonzero"):
            HubbardSpec(1.0, twist_y=twist)


def test_single_root_newton_agrees_with_bisection():
    spec = _reference_spec()
    roots = solve_nested(spec, HubbardRoots((-5.0 + 0.2j,), (), ()))

    def phase(x: float) -> float:
        return nested_residuals(spec, HubbardRoots((x + 0j,), (), ()))[0].imag

    oracle = bisect_real(phase, -4.0, -3.0)
    assert oracle == pytest.approx(-3.586539914203925, abs=1e-12)
    assert abs(roots.x1e[0] - oracle) < 1e-12


def test_reference_three_node_configuration():
    spec = _reference_spec()
    seed = HubbardRoots((1j * cmath.exp(-0.3j),), (-0.6 + 0.1j,),
                        (cmath.exp(2.9j) / 1j,))
    roots = solve_nested(spec, seed)
    assert (len(roots.x1e), len(roots.u11), len(roots.x112)) == (1, 1, 1)
    assert roots.x1e[0] == pytest.approx(-9.0792186463333, abs=1e-9)
    assert roots.u11[0] == pytest.approx(-1.3197361875357865, abs=1e-9)
    assert roots.x112[0] == pytest.approx(-2.119023208181012, abs=1e-9)
    assert np.max(np.abs(nested_residuals(spec, roots))) < 1e-12


def test_middle_node_branch_convention():
    yplus, yminus = shell_pairs(1.0, [0.7, -0.7])
    spec = HubbardSpec(1.0, yplus, yminus)
    res = nested_residuals(spec, HubbardRoots((), (0.3 + 0j,), ()))
    assert res.shape == (1,)
    assert res[0].real == pytest.approx(0.0, abs=1e-14)
    assert abs(res[0].imag) == pytest.approx(math.pi, abs=1e-14)


def test_middle_node_twist_sensitivity_is_linear():
    yplus, yminus = shell_pairs(1.0, [0.7, -0.7])
    gaps = []
    for eps in (1e-4, 1e-6):
        spec = HubbardSpec(1.0, yplus, yminus, twist_y=cmath.exp(1j * eps))
        res = nested_residuals(spec, HubbardRoots((), (0.3 + 0j,), ()))[0]
        gaps.append(abs(abs(res.imag) - math.pi))
    assert gaps[0] == pytest.approx(2e-4, rel=1e-6)
    assert gaps[0] / gaps[1] == pytest.approx(100.0, rel=1e-4)


def test_liebwu_frozen_two_particle_state():
    roots = solve_liebwu(2, 1.0, 2, 1, [0, 1], [-1])
    ks = sorted(z.real for z in roots.k)
    assert ks[0] == pytest.approx(0.9045568943023813, abs=1e-11)
    assert ks[1] == pytest.approx(5.378628412877205, abs=1e-11)
    assert abs(roots.lam[0]) < 1e-12
    energy, momentum = energy_momentum(2, 1.0, roots)
    assert energy == pytest.approx(-2.0 * math.sqrt(5.0), abs=1e-11)
    assert momentum == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(liebwu_residuals(2, 1.0, roots))) < 1e-12


def test_liebwu_vacuum_and_closed_forms():
    assert solve_liebwu(2, 1.0, 0, 0, [], []) == LiebWuRoots()
    assert energy_momentum(2, 1.0, LiebWuRoots()) == (2.0, 0.0)
    single = solve_liebwu(2, 1.0, 1, 0, [0], [])
    energy, _ = energy_momentum(2, 1.0, single)
    assert energy == pytest.approx(-2.0, abs=1e-12)
    shifted = solve_liebwu(2, 1.0, 1, 0, [2], [])
    energy2, _ = energy_momentum(2, 1.0, shifted)
    assert energy2 == pytest.approx(energy, abs=1e-12)
    assert shifted.k[0].real == pytest.approx(single.k[0].real + 2.0 * math.pi,
                                              abs=1e-12)
    # Without spin roots k = 2 pi I / L at every coupling, so the energy
    # is u (L - 2N) - 2 sum cos(2 pi I / L) from the free end up.
    for lsites in (2, 3, 4):
        for n_charge in range(1, lsites + 1):
            for mk, _ in admissible_modes(lsites, n_charge, 0):
                closed = -2.0 * sum(math.cos(2.0 * math.pi * i / lsites) for i in mk)
                for coupling in (1e-8, 0.5, 1.0, 2.0):
                    roots = solve_liebwu(lsites, coupling, n_charge, 0, list(mk), [])
                    energy, _ = energy_momentum(lsites, coupling, roots)
                    assert energy == pytest.approx(
                        coupling * (lsites - 2 * n_charge) + closed, abs=1e-12)


def test_liebwu_mode_validation():
    with pytest.raises(ValueError):
        solve_liebwu(2, 1.0, 2, 0, [0, 0], [])
    with pytest.raises(ValueError):
        solve_liebwu(2, 1.0, 1, 0, [0, 1], [])
    with pytest.raises(ValueError):
        solve_liebwu(2, 1.0, 1, 2, [0], [0, 1])
    with pytest.raises(ValueError, match="site"):
        solve_liebwu(-2, 1.0, 0, 0, [], [])
    # The single-site Hamiltonian has no hopping, but energy_momentum
    # would count -2 cos k for the charge root.
    for n_charge, mode_k in ((0, []), (1, [0])):
        with pytest.raises(ValueError, match="site"):
            solve_liebwu(1, 1.0, n_charge, 0, mode_k, [])
    # Charge modes equal modulo L give equal momenta, so no Bethe state.
    for modes in ([0, 2], [1, -1], [3, 5]):
        with pytest.raises(ValueError, match="distinct modulo L"):
            solve_liebwu(2, 1.0, 2, 0, modes, [])
    for coupling in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="coupling"):
            solve_liebwu(2, coupling, 1, 0, [0], [])
    # J = 0 and J = M - 1 - N sit on the window's edge, where the spin
    # root is at infinity: an su(2) descendant, not a Bethe state.
    for lsites, n_charge, m_spin, mode_lam in ((2, 2, 1, [0]), (4, 3, 1, [-3]),
                                               (2, 2, 1, [1]), (4, 4, 2, [-3, -1]),
                                               (4, 4, 2, [-2, 0])):
        with pytest.raises(ValueError, match="spin mode numbers must lie"):
            solve_liebwu(lsites, 1.0, n_charge, m_spin,
                         list(range(n_charge)), mode_lam)


def test_liebwu_mode_numbers_must_be_integers():
    # int() would read 0.7 as I = 0 and True as I = 1 (k = pi).
    for mode in (0.7, 1.0, True, np.True_, "1"):
        with pytest.raises(ValueError, match="must be integers"):
            solve_liebwu(2, 1.0, 1, 0, [mode], [])
    with pytest.raises(ValueError, match="must be integers"):
        solve_liebwu(3, 1.0, 2, 1, [0, 1], [-1.0])
    roots = solve_liebwu(2, 1.0, 1, 0, [1], [])
    assert solve_liebwu(2, 1.0, 1, 0, [np.int64(1)], []) == roots
    assert roots.k == (math.pi,)


def test_liebwu_matches_oracle_on_a_small_grid():
    for lsites in (2, 3):
        for n_charge in range(1, lsites + 1):
            for m_spin in range(0, n_charge // 2 + 1):
                _, report = match_sector(lsites, 1.0, n_charge, m_spin, 1e-10)
                assert report.gaps and report.passed, (lsites, n_charge, m_spin)


def test_liebwu_solves_every_mode_set_of_a_start_floor_sector():
    # Four of these mode sets used to stall in the start solve at
    # u = 1e-3, where rounding alone leaves a residual near 2e-13.
    outcomes, report = match_sector(4, 0.5, 3, 1, 1e-8)
    assert len(outcomes) == 8
    assert [error for _, _, _, error in outcomes] == [None] * 8
    assert report.passed and len(report.gaps) == 8


def test_liebwu_solves_past_the_first_step_floor():
    # Lambda sits between sin k_2 and sin k_3, nearly equal, where
    # dF/dlambda ~ 4/t: demanding _LIEBWU_TOL at the first continuation
    # step (t ~ 0.009) stalled this mode set at a residual of 1.09e-13.
    lsites, coupling = 4, 0.3174760939461972
    roots = solve_liebwu(lsites, coupling, 3, 1, [1, 2, 3], [-2])
    energy, _ = energy_momentum(lsites, coupling, roots)
    eigs = ed_oracle.spectrum(ed_oracle.build_hamiltonian(lsites, coupling, (2, 1)))
    assert min(abs(energy - e) for e in eigs) < 1e-12


def _clear_start_memo() -> None:
    """Forget every memoized start phase, so that solver counts do not
    depend on which tests ran before."""
    hb._ranked_spin_seeds.cache_clear()
    hb._start_root.cache_clear()


def _count_start_solves(monkeypatch) -> tuple:
    """Count hubbard_bethe's solve_damped calls at the start tolerance
    (all, failed) and continue_path's corrector solves (all, failed),
    from a cleared start memo."""
    _clear_start_memo()
    solve = hb.solve_damped
    starts, failures, path_solves, path_failures = [], [], [], []

    def counting(fun, jac, z0, **kwargs):
        is_start = kwargs.get("tol") == hb._START_TOL
        starts.append(is_start)
        try:
            return solve(fun, jac, z0, **kwargs)
        except NoConvergence:
            failures.append(is_start)
            raise

    def counting_path(fun, jac, z0, **kwargs):
        path_solves.append(1)
        try:
            return solve(fun, jac, z0, **kwargs)
        except NoConvergence:
            path_failures.append(1)
            raise

    monkeypatch.setattr(hb, "solve_damped", counting)
    monkeypatch.setattr(_newton, "solve_damped", counting_path)
    return starts, failures, path_solves, path_failures


def test_liebwu_first_ranked_spin_seed_starts_every_grid_mode_set(monkeypatch):
    # Start solves are the solve_damped calls at the start tolerance;
    # one that fails costs up to 60 Newton iterations.  Trying the spin
    # seeds in pool order failed 24 of 171 start solves on this grid.
    # The start phase does not depend on the coupling, so the 147 solves
    # at three couplings start each of the 49 mode sets once.
    # continue_path calls solve_damped through the _newton module, so
    # its corrector solves are counted apart: 40 equal steps per path
    # made 5 880 of them here, adaptive steps from a first step of 1/10
    # of the path made 588, and the whole-path first step makes one per
    # path, none of them rejected.
    starts, failures, path_solves, path_failures = _count_start_solves(monkeypatch)
    mode_sets = set()
    solves = 0
    for lsites in (2, 3, 4):
        for coupling in (0.35, 1.0, 2.8):
            for n_charge in range(1, lsites + 1):
                for m_spin in range(0, n_charge // 2 + 1):
                    for mk, ml in admissible_modes(lsites, n_charge, m_spin):
                        solve_liebwu(lsites, coupling, n_charge, m_spin,
                                     list(mk), list(ml))
                        mode_sets.add((lsites, mk, ml))
                        solves += 1
    assert solves == 147 and len(mode_sets) == 49
    assert sum(failures) == 0
    assert sum(starts) == len(mode_sets)
    assert len(path_solves) == solves
    assert sum(path_failures) == 0


def _sweep_outcomes(sizes, couplings):
    """How many mode sets of every sector with N >= 1 and M <= N/2 solve,
    and the type of the failure of each of the rest, keyed by
    (L, u, N, M, I, J)."""
    solved, failures = 0, {}
    for lsites in sizes:
        for coupling in couplings:
            for n_charge in range(1, lsites + 1):
                for m_spin in range(0, n_charge // 2 + 1):
                    for mk, ml in admissible_modes(lsites, n_charge, m_spin):
                        try:
                            solve_liebwu(lsites, coupling, n_charge, m_spin,
                                         list(mk), list(ml))
                        except (NoConvergence, PathCollision) as exc:
                            key = (lsites, coupling, n_charge, m_spin, mk, ml)
                            failures[key] = type(exc).__name__
                        else:
                            solved += 1
    return solved, failures


# The mode sets of L = 6 that no spin seed solves, at each of u = 0.3,
# 1 and 3, as (N, M, I, J).
_L6_UNSOLVED = (
    (4, 2, (0, 1, 2, 4), (-2, -1)),
    (4, 2, (0, 2, 3, 5), (-2, -1)),
    (4, 2, (1, 2, 4, 5), (-2, -1)),
    (5, 2, (0, 1, 2, 3, 4), (-3, -2)),
    (5, 2, (0, 1, 2, 3, 4), (-2, -1)),
    (5, 2, (0, 1, 2, 3, 5), (-3, -2)),
    (5, 2, (0, 1, 2, 4, 5), (-3, -2)),
    (5, 2, (0, 1, 2, 4, 5), (-3, -1)),
    (5, 2, (0, 2, 3, 4, 5), (-2, -1)),
    (5, 2, (1, 2, 3, 4, 5), (-2, -1)),
    (6, 2, (0, 1, 2, 3, 4, 5), (-4, -2)),
    (6, 2, (0, 1, 2, 3, 4, 5), (-3, -1)),
)


def test_liebwu_sweeps_solve_the_pinned_mode_sets():
    # Every admissible mode set of L = 2..6 at three moderate couplings,
    # and of L = 2..5 from the free end to the strong end.  At u = 0.002
    # the counting residual of some spin roots sits at its rounding
    # floor, near _LIEBWU_TOL: the polish of L=4 N=4 M=1 I=(0,1,2,3)
    # J=(-3) stalls at 1.128e-13 from every spin seed.
    couplings = (0.3, 1.0, 3.0)
    assert _sweep_outcomes(range(2, 7), couplings) == (1071, {
        (6, u, *modes): "NoConvergence" for u in couplings for modes in _L6_UNSOLVED})
    assert _sweep_outcomes(range(2, 6), (0.002, 0.02, 0.1, 10.0, 40.0)) == (684, {
        (4, 0.002, 4, 1, (0, 1, 2, 3), (-3,)): "NoConvergence"})


def _liebwu_outcome(lsites, coupling, n_charge, m_spin, mk, ml):
    """Roots of one solve, or the type, message and residual of its failure."""
    try:
        roots = solve_liebwu(lsites, coupling, n_charge, m_spin, list(mk), list(ml))
    except (NoConvergence, PathCollision) as exc:
        return type(exc), str(exc), getattr(exc, "residual", None)
    return roots.k, roots.lam


def test_liebwu_memoized_start_gives_the_answers_of_a_fresh_start():
    # u = 1e-3 starts at u_start = 1e-3 like the larger couplings and
    # reads their start roots from the memo; at 1e-8, u_start = u.
    _clear_start_memo()
    cases = [(lsites, coupling, n_charge, m_spin, mk, ml)
             for lsites in (2, 3, 4)
             for n_charge in range(1, lsites + 1)
             for m_spin in range(0, n_charge // 2 + 1)
             for mk, ml in admissible_modes(lsites, n_charge, m_spin)
             for coupling in (0.35, 1.0, 2.8, 1e-3, 1e-8)]
    memoized = [_liebwu_outcome(*case) for case in cases]
    assert hb._start_root.cache_info().hits > 0
    fresh = []
    for case in cases:
        _clear_start_memo()
        fresh.append(_liebwu_outcome(*case))
    assert memoized == fresh
    # The free limit fails a few mode sets; their messages and
    # residuals must agree too.
    assert any(len(outcome) == 3 for outcome in fresh)


def test_liebwu_failed_start_seed_is_solved_once_per_mode_set(monkeypatch):
    # The first-ranked spin seed of this mode set stalls at u = 1e-3;
    # the second solve, at another coupling, reads the failure from
    # the memo instead of solving it again.
    starts, failures, _, _ = _count_start_solves(monkeypatch)
    modes = ([0, 1, 2, 3], [-2, -1])
    first = solve_liebwu(5, 0.4, 4, 2, *modes)
    assert sum(failures) == 1
    second = solve_liebwu(5, 1.1, 4, 2, *modes)
    assert sum(failures) == 1 and sum(starts) == 2
    assert first != second


def test_liebwu_target_at_the_start_coupling_reuses_the_start_roots(monkeypatch):
    # Every start solve stops at _START_TOL, so u = 1e-3 reads the start
    # roots that u = 1.0 left in the memo and only polishes them.
    starts, _, _, _ = _count_start_solves(monkeypatch)
    modes = ([0, 1], [-1])
    solve_liebwu(3, 1.0, 2, 1, *modes)
    info = hb._start_root.cache_info()
    roots = solve_liebwu(3, 1e-3, 2, 1, *modes)
    assert hb._start_root.cache_info().hits > info.hits
    assert hb._start_root.cache_info().misses == info.misses
    assert sum(starts) == info.misses
    assert np.max(np.abs(liebwu_residuals(3, 1e-3, roots))) < 1e-12


def test_liebwu_raises_no_convergence_when_every_path_collides(monkeypatch):
    def colliding(*args, **kwargs):
        raise PathCollision("roots 0 and 1 collided at t=0.5")

    # Every start solve of this mode set converges, so every seed
    # reaches the continuation.
    _clear_start_memo()
    monkeypatch.setattr(hb, "continue_path", colliding)
    seeds = len(hb._ranked_spin_seeds(4, (0, 1), (-1,), 1e-3))
    assert seeds >= 2
    with pytest.raises(NoConvergence, match=f": {seeds} of {seeds} seed paths collided") as info:
        solve_liebwu(4, 1.0, 2, 1, [0, 1], [-1])
    assert isinstance(info.value.__cause__, PathCollision)


def test_liebwu_start_memo_holds_only_floats_and_read_only_arrays():
    _clear_start_memo()
    lsites, mk, ml = 5, (0, 1, 2, 3), (-2, -1)
    solve_liebwu(lsites, 0.4, 4, 2, list(mk), list(ml))
    seeds = hb._ranked_spin_seeds(lsites, mk, ml, 1e-3)
    held = [hb._start_root(lsites, mk, ml, 1e-3, lam0)
            for lam0 in seeds[:hb._start_root.cache_info().currsize]]
    assert hb._start_root.cache_info().misses == len(held) >= 2
    assert any(isinstance(entry, float) for entry in held)
    for entry in held:
        assert isinstance(entry, float) or (
            isinstance(entry, np.ndarray) and not entry.flags.writeable)
    assert all(isinstance(lam, float) for lam0 in seeds for lam in lam0)


def test_liebwu_start_memo_stays_within_its_size():
    for lsites, coupling, n_charge, m_spin in _liebwu_grid_cases():
        for mk, ml in admissible_modes(lsites, n_charge, m_spin):
            try:
                solve_liebwu(lsites, coupling, n_charge, m_spin, list(mk), list(ml))
            except (NoConvergence, PathCollision):
                pass
    for memo in (hb._ranked_spin_seeds, hb._start_root):
        info = memo.cache_info()
        assert info.maxsize == hb._START_MEMO_SIZE
        assert 0 < info.currsize <= info.maxsize


def test_liebwu_answers_meet_the_final_tolerance_at_the_target_coupling():
    # The start solve may stop at the looser hb._START_TOL; every answer
    # must still satisfy the counting equations to _LIEBWU_TOL.
    worst = 0.0
    for lsites, coupling, n_charge, m_spin in _liebwu_grid_cases():
        if n_charge == 0:
            continue
        for mk, ml in admissible_modes(lsites, n_charge, m_spin):
            roots = solve_liebwu(lsites, coupling, n_charge, m_spin, list(mk), list(ml))
            z = np.array([k.real for k in roots.k + roots.lam])
            res = hb._counting_residuals(lsites, coupling, list(mk), list(ml), z)
            worst = max(worst, float(np.max(np.abs(res))))
    assert worst < hb._LIEBWU_TOL


def test_liebwu_failure_names_its_best_residual(monkeypatch):
    # Every seed converges but fails the product-form check: the error
    # must say so instead of dropping the seeds silently.
    monkeypatch.setattr(hb, "liebwu_residuals", lambda *args: np.array([3e-9]))
    with pytest.raises(NoConvergence) as info:
        solve_liebwu(2, 1.0, 2, 1, [0, 1], [-1])
    assert info.value.residual == 3e-9
    assert str(info.value).endswith(
        "best residual 3.000e-09 over 3 spin seeds, 3 of 3 converged but "
        "failed the product-form check")
