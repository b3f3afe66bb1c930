"""Acceptance battery: one test per shipped guarantee.

Each test runs one battery of `qsc22.acceptance`, the same code as
`qsc22 suite`, and restates the guarantee's bounds as literals, so a
change to a battery's bound cannot loosen a test.  Each prints one
[PASS] line with the battery's margins, so a verbose run reads as a
checklist.

Each battery but pmu also has a negative control: a mutation of the
program that `qsc22 suite --only <battery>` must report as a failure,
with JSON on stdout and no traceback.  `NEGATIVE_CONTROLS` lists them.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
from click.testing import CliRunner

from qsc22 import acceptance, ads3, ed_oracle, hubbard_bethe, qsystem, ty_system
from qsc22 import analytic_layer as al
from qsc22.acceptance import BATTERIES
from qsc22.cli import main


def _run(name: str) -> tuple:
    """Detail and wall time of one battery at the suite's seed."""
    start = time.perf_counter()
    ok, detail = dict(BATTERIES)[name](7)
    elapsed = time.perf_counter() - start
    assert ok, detail
    print(f"[PASS] {name} in {elapsed:.1f}s: {json.dumps(detail)}")
    return detail, elapsed


def _fails(name: str) -> dict:
    """Detail of `suite --only name`, which must fail that battery cleanly."""
    result = CliRunner().invoke(main, ["suite", "--only", name])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    payload = json.loads(result.stdout)
    assert payload["ok"] is False and payload["first_failure"] == name
    return payload["results"][0]["detail"]


def test_criterion_01_random_seeds_satisfy_qq_exactly():
    detail, elapsed = _run("qq")
    assert detail == {"systems": 20, "failed_seeds": [], "checked": 49 * 20}
    assert elapsed < 30.0


def test_criterion_01_fails_on_a_corrupted_slot(monkeypatch):
    generate = qsystem.generate_from_seed

    def corrupted(*args, **kwargs):
        slots = dict(generate(*args, **kwargs).items())
        slots["1|1"] = slots["1|1"] + 1
        return qsystem.QSystem(slots)

    monkeypatch.setattr(qsystem, "generate_from_seed", corrupted)
    detail = _fails("qq")
    assert len(detail["failed_seeds"]) == detail["systems"] == 20


def test_criterion_02_hodge_double_dual_sign():
    assert _run("hodge")[0] == {"systems": 3, "failures": []}


def test_criterion_02_fails_on_a_flipped_hodge_sign(monkeypatch):
    # The audit of a generated system runs the QQ relations through the
    # Hodge table, so the battery must build its systems unaudited to
    # report the flip instead of raising.
    monkeypatch.setitem(qsystem._HODGE, "1|0", (-1, "2|12"))
    detail = _fails("hodge")
    assert detail["systems"] == 3
    assert sorted({slot for _, slot in detail["failures"]}) == ["1|0", "2|12"]
    assert len(detail["failures"]) == 6


def test_criterion_03_wronskian_t_satisfies_hirota():
    assert _run("hirota")[0] == {"systems": 20, "hirota_failed": [],
                                 "y_identity_failed": []}


def test_criterion_03_fails_on_a_shifted_t_function(monkeypatch):
    t_function = ty_system.t_function

    def shifted(q, a, s, reverse=False):
        value = t_function(q, a, s, reverse)
        return value + 1 if (a, s) == (2, 2) else value

    monkeypatch.setattr(ty_system, "t_function", shifted)
    detail = _fails("hirota")
    assert len(detail["hirota_failed"]) == detail["systems"] == 20


def test_criterion_04_liebwu_roots_match_ed_spectra():
    detail, elapsed = _run("liebwu")
    assert detail["errors"] == []
    assert detail["bound"] == 1e-8 and detail["max_gap"] < 1e-8
    assert detail["free_bound"] == 1e-4 and detail["max_free_gap"] < 1e-4
    assert detail["attempted"] == 156 and detail["free_attempted"] == 49
    assert detail["solved"] + detail["skipped"] == detail["attempted"]
    assert detail["skipped"] == 0
    assert elapsed < 120.0


def test_criterion_04_fails_on_a_non_real_energy(monkeypatch):
    energy_momentum = hubbard_bethe.energy_momentum

    def complex_energy(*args):
        energy, momentum = energy_momentum(*args)
        return energy + 1e-3j, momentum

    # Two sectors keep the run short: the free limit of the first uses
    # the closed form, that of the second the oracle.
    monkeypatch.setattr(acceptance, "_liebwu_grid_cases",
                        lambda: [(2, 1.0, 1, 0), (3, 1.0, 2, 1)])
    monkeypatch.setattr(hubbard_bethe, "energy_momentum", complex_energy)
    detail = _fails("liebwu")
    assert detail["errors"] == [["oracle mismatch", [2, 1.0, 1, 0]],
                                ["oracle mismatch", [3, 1.0, 2, 1]]]
    assert detail["max_gap"] >= 1e-3 and detail["max_free_gap"] >= 1e-3


def test_criterion_05_truncation_identities():
    detail, _ = _run("truncation")
    assert detail["orders"] == [4, 16] and detail["points"] == 200
    assert detail["bound"] == 1e-12 and detail["max_rel_err"] < 1e-12


def test_criterion_05_fails_on_a_short_truncated_product(monkeypatch):
    def one_factor_short(source, n_trunc, u):
        out = 1.0 + 0j
        for n in range(n_trunc):
            out *= source(u + 1j * n)
        return out

    monkeypatch.setattr(al, "truncated_f", one_factor_short)
    assert _fails("truncation")["max_rel_err"] > 1e-2


def test_criterion_06_baxter_step_projections():
    detail, _ = _run("baxter")
    assert detail["draws"] == 100
    assert detail["bound"] == 1e-12 and detail["max_rel_err"] < 1e-12


def test_criterion_06_fails_on_an_untransposed_baxter_step(monkeypatch):
    def untransposed(mu, p, pstar, fval):
        left = np.eye(2, dtype=complex) + np.outer(p, pstar) / fval
        return left @ mu @ left

    monkeypatch.setattr(al, "baxter_step", untransposed)
    assert _fails("baxter")["max_rel_err"] > 1e2


def test_criterion_07_caseb_pmu_residuals():
    detail, _ = _run("pmu")
    assert detail["n_trunc"] == 12 and detail["probes"] == 8
    assert detail["bound"] == 1e-8
    assert detail["fit_residual"] < 1e-8 and detail["max_residual"] < 1e-8


def test_criterion_08_character_solutions():
    assert _run("character")[0] == {"twists": 10, "failed": []}


def test_criterion_08_fails_on_a_corrupted_slot(monkeypatch):
    character_solution = ty_system.character_solution

    def corrupted(sx, sy):
        slots = dict(character_solution(sx, sy).items())
        slots["1|1"] = slots["1|1"] + 1
        return qsystem.QSystem(slots)

    monkeypatch.setattr(ty_system, "character_solution", corrupted)
    detail = _fails("character")
    assert len(detail["failed"]) == detail["twists"] == 10


def test_criterion_09_ads3_continuation_and_crossing():
    detail, _ = _run("ads3")
    assert detail["continuation_exact"] is True
    assert detail["bound"] == 1e-10 and detail["max_residual"] < 1e-10
    assert detail["const_passed"] is False
    assert detail["const_rel_gap"] == 0.46165266784314857
    assert "toy_rel_gap" not in detail


def test_criterion_09_fails_on_roots_of_another_volume(monkeypatch):
    solve_two_particle = ads3.solve_two_particle

    def misplaced(hcoup, volume):
        return dataclasses.replace(solve_two_particle(hcoup, volume + 1),
                                   volume=volume)

    monkeypatch.setattr(ads3, "solve_two_particle", misplaced)
    detail = _fails("ads3")
    assert detail["continuation_exact"] is True
    assert detail["max_residual"] > 0.5


def test_criterion_10_ed_self_checks():
    detail, _ = _run("ed")
    assert detail["dimension_audit"] is True
    assert detail["audited_sites"] == [1, 2, 3, 4]
    assert detail["bound"] == 1e-9
    assert detail["trace_gap"] < 1e-9
    assert detail["swap_gap"] < 1e-9
    assert detail["pinned_sector_gap"] < 1e-9
    assert detail["free_fermion_gap"] < 1e-9


def test_criterion_10_fails_on_a_dropped_fermion_sign(monkeypatch):
    apply_hop = ed_oracle._apply_hop

    def bosonic(mask, src, dst):
        hop = apply_hop(mask, src, dst)
        return None if hop is None else (hop[0], 1)

    monkeypatch.setattr(ed_oracle, "_apply_hop", bosonic)
    detail = _fails("ed")
    # The older checks cannot see the sign; the free-fermion spectra can.
    assert max(detail["trace_gap"], detail["swap_gap"],
               detail["pinned_sector_gap"]) < 1e-9
    assert detail["free_fermion_gap"] >= 1.0


# Battery -> its negative control.  pmu has none: its least-squares fit
# enforces the Wronskian constraint for any roots, so no wrong input
# makes it fail until it is rebuilt (ROADMAP item 2).
NEGATIVE_CONTROLS = {
    "qq": test_criterion_01_fails_on_a_corrupted_slot,
    "hodge": test_criterion_02_fails_on_a_flipped_hodge_sign,
    "hirota": test_criterion_03_fails_on_a_shifted_t_function,
    "liebwu": test_criterion_04_fails_on_a_non_real_energy,
    "truncation": test_criterion_05_fails_on_a_short_truncated_product,
    "baxter": test_criterion_06_fails_on_an_untransposed_baxter_step,
    "character": test_criterion_08_fails_on_a_corrupted_slot,
    "ads3": test_criterion_09_fails_on_roots_of_another_volume,
    "ed": test_criterion_10_fails_on_a_dropped_fermion_sign,
}


def test_every_battery_but_pmu_has_a_negative_control():
    names = {name for name, _ in BATTERIES}
    assert NEGATIVE_CONTROLS.keys() <= names
    assert names - NEGATIVE_CONTROLS.keys() == {"pmu"}
