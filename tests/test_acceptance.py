"""Acceptance battery: one test per shipped guarantee.

Each test runs one battery of `qsc22.acceptance`, the same code as
`qsc22 suite`, and restates the guarantee's bounds as literals, so a
change to a battery default cannot loosen a test.  Each prints one
[PASS] line with the battery's margins, so a verbose run reads as a
checklist.
"""

from __future__ import annotations

import json
import time

from click.testing import CliRunner

from qsc22 import acceptance, ed_oracle, hubbard_bethe, qsystem
from qsc22.acceptance import BATTERIES
from qsc22.cli import main


def _run(name: str) -> tuple:
    """Detail and wall time of one battery at the suite's seed and tolerances."""
    start = time.perf_counter()
    ok, detail = dict(BATTERIES)[name](7, None)
    elapsed = time.perf_counter() - start
    assert ok, detail
    print(f"[PASS] {name} in {elapsed:.1f}s: {json.dumps(detail)}")
    return detail, elapsed


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
    result = CliRunner().invoke(main, ["suite", "--only", "qq"])
    assert result.exit_code == 1
    detail = json.loads(result.stdout)["results"][0]["detail"]
    assert len(detail["failed_seeds"]) == detail["systems"] == 20


def test_criterion_02_hodge_double_dual_sign():
    assert _run("hodge")[0] == {"systems": 3, "failures": []}


def test_criterion_03_wronskian_t_satisfies_hirota():
    assert _run("hirota")[0] == {"systems": 20, "hirota_failed": [],
                                 "y_identity_failed": []}


def test_criterion_04_liebwu_roots_match_ed_spectra():
    detail, elapsed = _run("liebwu")
    assert detail["errors"] == []
    assert detail["max_gap"] < 1e-8
    assert detail["max_free_gap"] < 1e-4
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
    result = CliRunner().invoke(main, ["suite", "--only", "liebwu"])
    assert result.exit_code == 1
    detail = json.loads(result.stdout)["results"][0]["detail"]
    assert detail["errors"] == [["oracle mismatch", [2, 1.0, 1, 0]],
                                ["oracle mismatch", [3, 1.0, 2, 1]]]
    assert detail["max_gap"] >= 1e-3 and detail["max_free_gap"] >= 1e-3


def test_criterion_05_truncation_identities():
    detail, _ = _run("truncation")
    assert detail["orders"] == [4, 16] and detail["points"] == 200
    assert detail["max_rel_err"] < 1e-12


def test_criterion_06_baxter_step_projections():
    detail, _ = _run("baxter")
    assert detail["draws"] == 100 and detail["max_rel_err"] < 1e-12


def test_criterion_07_caseb_pmu_residuals():
    detail, _ = _run("pmu")
    assert detail["n_trunc"] == 12 and detail["probes"] == 8
    assert detail["fit_residual"] < 1e-8 and detail["max_residual"] < 1e-8


def test_criterion_08_character_solutions():
    assert _run("character")[0] == {"twists": 10, "failed": []}


def test_criterion_09_ads3_continuation_and_crossing():
    detail, _ = _run("ads3")
    assert detail["continuation_exact"] is True
    assert detail["max_residual"] < 1e-10
    assert detail["const_passed"] is False
    assert detail["toy_rel_gap"] < 1e-8


def test_criterion_10_ed_self_checks():
    detail, _ = _run("ed")
    assert detail["dimension_audit"] is True
    assert detail["audited_sites"] == [1, 2, 3, 4]
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
    result = CliRunner().invoke(main, ["suite", "--only", "ed"])
    assert result.exit_code == 1
    detail = json.loads(result.stdout)["results"][0]["detail"]
    # The older checks cannot see the sign; the free-fermion spectra can.
    assert max(detail["trace_gap"], detail["swap_gap"],
               detail["pinned_sector_gap"]) < 1e-9
    assert detail["free_fermion_gap"] >= 1.0
