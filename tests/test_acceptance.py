"""Acceptance battery: one test per shipped guarantee.

Each test runs one battery of `qsc22.acceptance`, the same code as
`qsc22 suite`, and restates the guarantee's bounds as literals, so a
change to a battery's bound cannot loosen a test.  Each prints one
[PASS] line with the battery's result, so a verbose run reads as a
checklist.

Each battery also has negative controls that
`qsc22 suite --only <battery>` must report as a failure, with JSON on
stdout and no traceback.  A "data" control feeds wrong input to the
unchanged checker; a "mutation" control patches the code under test.
Every battery has at least one data control, and every gap a battery
bounds reaches its bound under at least one control.
`NEGATIVE_CONTROLS` lists them by kind.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time

import pytest
from click.testing import CliRunner

from qsc22 import acceptance, ads3, ed_oracle, hubbard_bethe, qsystem, ty_system
from qsc22.acceptance import BATTERIES, BatteryResult
from qsc22.cli import main


def _run(name: str) -> tuple:
    """JSON result and wall time of one battery at the suite's seed."""
    start = time.perf_counter()
    result = dict(BATTERIES)[name](7).as_json()
    elapsed = time.perf_counter() - start
    assert result["ok"] and result["failures"] == [], result
    print(f"[PASS] {name} in {elapsed:.1f}s: {json.dumps(result)}")
    return result, elapsed


def _exact(result: dict) -> dict:
    """The detail of an exact battery, which measures no gap."""
    assert result["measured"] == result["bound"] == result["skipped"] == {}
    assert result["margin"] is None
    return result["detail"]


# Battery name -> its results under the negative controls run so far.
_CONTROL_RESULTS: dict = {}


def _fails(name: str) -> dict:
    """Result of `suite --only name`, which must fail that battery cleanly.

    The result is also kept in `_CONTROL_RESULTS`.
    """
    result = CliRunner().invoke(main, ["suite", "--only", name])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    payload = json.loads(result.stdout)
    assert payload["ok"] is False and payload["first_failure"] == name
    assert payload["results"][0]["ok"] is False
    _CONTROL_RESULTS.setdefault(name, []).append(payload["results"][0])
    return payload["results"][0]


def test_battery_result_gap_equal_to_its_bound_fails():
    assert not BatteryResult(1, measured={"gap": 1e-8}, bound={"gap": 1e-8}).ok
    assert BatteryResult(1, measured={"gap": 0.99e-8}, bound={"gap": 1e-8}).ok
    assert not BatteryResult(1, measured={"gap": math.nan}, bound={"gap": 1.0}).ok


def test_battery_result_one_failure_fails_within_bounds():
    result = BatteryResult(3, ("oracle mismatch",), measured={"gap": 0.0},
                           bound={"gap": 1.0})
    assert not result.ok
    assert BatteryResult(3, ()).ok and not BatteryResult(3, ((1, "1|0"),)).ok


def test_battery_result_margin():
    assert BatteryResult(5).margin is None
    result = BatteryResult(2, measured={"a": 0.25, "b": 0.5, "c": 0.0},
                           bound={"a": 4.0, "b": 8.0, "c": 1e-9})
    assert result.margin == 16.0
    assert BatteryResult(1, measured={"a": 0.0}, bound={"a": 1.0}).margin == math.inf
    assert BatteryResult(1, measured={"a": 2.0}, bound={"a": 1.0}).margin == 0.5


def test_battery_result_json_round_trips():
    result = BatteryResult(
        4, (("oracle mismatch", (2, 1.0, 1, 0)), {"sx": "1/2"}),
        measured={"gap": 2e-9}, bound={"gap": 1e-8},
        skipped={"L=4 u=1e-08 N=2 M=1": 2},
        detail={"orders": (4, 16), "points": 200})
    payload = result.as_json()
    assert json.loads(json.dumps(payload)) == payload
    assert payload == {
        "ok": False, "margin": 5.0, "attempted": 4,
        "failures": [["oracle mismatch", [2, 1.0, 1, 0]], {"sx": "1/2"}],
        "measured": {"gap": 2e-9}, "bound": {"gap": 1e-8},
        "skipped": {"L=4 u=1e-08 N=2 M=1": 2},
        "detail": {"orders": [4, 16], "points": 200}}
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.attempted = 5


def test_criterion_01_random_seeds_satisfy_qq_exactly():
    result, elapsed = _run("qq")
    assert result["attempted"] == 20
    assert _exact(result) == {"checked": 49 * 20}
    assert elapsed < 30.0


def _corrupt_generated_slot(monkeypatch, slot: str) -> None:
    """Make qsystem.generate_from_seed return its system with slot + 1."""
    generate = qsystem.generate_from_seed

    def corrupted(*args, **kwargs):
        slots = dict(generate(*args, **kwargs).items())
        slots[slot] = slots[slot] + 1
        return qsystem.QSystem(slots)

    monkeypatch.setattr(qsystem, "generate_from_seed", corrupted)


def test_criterion_01_fails_on_a_corrupted_slot(monkeypatch):
    _corrupt_generated_slot(monkeypatch, "1|1")
    result = _fails("qq")
    assert len(result["failures"]) == result["attempted"] == 20
    # Each entry names its seed and the relations the slot broke.
    for seed, relations in result["failures"]:
        assert isinstance(seed, int)
        assert "det" in relations and len(relations) == 21


def test_criterion_02_hodge_dual_satisfies_qq():
    result, _ = _run("hodge")
    # Each dual is checked against all 49 QQ relations.
    assert result["attempted"] == 3 and _exact(result) == {"dual_checked": 49 * 3}


def _dual_qq_failures(result: dict) -> list:
    """The battery's failure entries; each names a seed and relations."""
    entries = result["failures"]
    for seed, label, relations in entries:
        assert isinstance(seed, int) and label == "dual QQ" and relations
    return entries


def test_criterion_02_fails_on_a_flipped_hodge_sign(monkeypatch):
    monkeypatch.setitem(qsystem._HODGE, "1|0", (-1, "2|12"))
    result = _fails("hodge")
    assert result["attempted"] == 3
    # One "dual QQ" entry per seed.
    assert len({seed for seed, *_ in _dual_qq_failures(result)}) == 3
    assert len(result["failures"]) == 3


def test_criterion_02_fails_on_a_consistently_flipped_dual_pair(monkeypatch):
    # Flipping both entries of a dual pair keeps `_HODGE` an involution
    # with the right signs; only the QQ relations of the dual see it.
    monkeypatch.setitem(qsystem._HODGE, "1|0", (-1, "2|12"))
    monkeypatch.setitem(qsystem._HODGE, "2|12", (1, "1|0"))
    result = _fails("hodge")
    assert result["attempted"] == 3
    assert len({seed for seed, *_ in _dual_qq_failures(result)}) == 3
    assert len(result["failures"]) == 3


def test_criterion_03_wronskian_t_satisfies_hirota():
    result, _ = _run("hirota")
    assert result["attempted"] == 20 and _exact(result) == {}


def test_criterion_03_fails_on_a_shifted_t_function(monkeypatch):
    t_function = ty_system.t_function

    def shifted(q, a, s):
        value = t_function(q, a, s)
        return value + 1 if (a, s) == (2, 2) else value

    monkeypatch.setattr(ty_system, "t_function", shifted)
    result = _fails("hirota")
    assert len(result["failures"]) == result["attempted"] == 20
    # Each entry names its seed and the cells whose equation involves T_{2,2}.
    for seed, cells in result["failures"]:
        assert isinstance(seed, int)
        assert cells == ["1,2", "2,1", "2,2", "2,3", "3,2"]


def test_criterion_03_fails_on_a_corrupted_slot(monkeypatch):
    _corrupt_generated_slot(monkeypatch, "12|1")
    result = _fails("hirota")
    assert len(result["failures"]) == result["attempted"] == 20
    # Each entry names its seed and the six cells that 12|1, a factor of
    # T_{a,1} for a >= 1, breaks.
    for seed, cells in result["failures"]:
        assert isinstance(seed, int)
        assert cells == ["1,1", "1,2", "2,1", "2,2", "3,1", "4,1"]


def test_criterion_04_liebwu_roots_match_ed_spectra():
    result, elapsed = _run("liebwu")
    assert result["bound"] == {"max_gap": 1e-8}
    assert result["measured"]["max_gap"] < 1e-8
    # 156 grid mode sets and 49 of the grid's N >= 1 sectors at u = 1e-8.
    assert result["attempted"] == 205
    # Every grid mode set solves; only the free limit skips any.
    assert result["skipped"] == {"L=4 u=1e-08 N=2 M=1": 2,
                                 "L=4 u=1e-08 N=3 M=1": 4,
                                 "L=4 u=1e-08 N=4 M=1": 2}
    assert elapsed < 120.0


def test_criterion_04_fails_on_a_non_real_energy(monkeypatch):
    energy_momentum = hubbard_bethe.energy_momentum

    def complex_energy(*args):
        energy, momentum = energy_momentum(*args)
        return energy + 1e-3j, momentum

    # Two sectors keep the run short; each runs again at u = 1e-8.
    monkeypatch.setattr(acceptance, "_liebwu_grid_cases",
                        lambda: [(2, 1.0, 1, 0), (3, 1.0, 2, 1)])
    monkeypatch.setattr(hubbard_bethe, "energy_momentum", complex_energy)
    result = _fails("liebwu")
    assert result["failures"] == [["oracle mismatch", [2, 1.0, 1, 0]],
                                  ["oracle mismatch", [3, 1.0, 2, 1]],
                                  ["oracle mismatch", [2, 1e-8, 1, 0]],
                                  ["oracle mismatch", [3, 1e-8, 2, 1]]]
    assert result["measured"]["max_gap"] >= 1e-3


def test_criterion_04_fails_on_roots_of_another_coupling(monkeypatch):
    solve_liebwu = hubbard_bethe.solve_liebwu

    def misplaced(lsites, coupling, *args):
        return solve_liebwu(lsites, 1.1 * coupling, *args)

    # Each sector has a spin root; without one k = 2 pi I / L does not
    # depend on the coupling, and roots of another coupling are right.
    monkeypatch.setattr(acceptance, "_liebwu_grid_cases",
                        lambda: [(3, 1.0, 2, 1), (4, 1.0, 3, 1)])
    monkeypatch.setattr(hubbard_bethe, "solve_liebwu", misplaced)
    result = _fails("liebwu")
    assert result["failures"] == [["oracle mismatch", [3, 1.0, 2, 1]],
                                  ["oracle mismatch", [4, 1.0, 3, 1]]]
    assert result["measured"]["max_gap"] >= 1e-2


def test_criterion_08_character_solutions():
    result, _ = _run("character")
    assert result["attempted"] == 10 and _exact(result) == {}


def test_criterion_08_fails_on_a_corrupted_slot(monkeypatch):
    character_solution = ty_system.character_solution

    def corrupted(sx, sy):
        slots = dict(character_solution(sx, sy).items())
        slots["12|1"] = slots["12|1"] + 1
        return qsystem.QSystem(slots)

    # 12|1 is a factor of T_{a,1}, so every check fails, not QQ alone;
    # no T-function reads the middle slots such as 1|1.
    monkeypatch.setattr(ty_system, "character_solution", corrupted)
    result = _fails("character")
    assert len(result["failures"]) == result["attempted"] == 10
    for run in result["failures"]:
        assert not any(run[check] for check in
                       ("qq", "hirota", "hodge_trivial", "shift_invariant"))


def test_criterion_09_ads3_residuals_and_crossing():
    # The crossing half of the criterion holds for any state with massive
    # roots, so it is the unit test test_crossing_rules_out_constant_dressing.
    result, _ = _run("ads3")
    assert result["bound"] == {"max_residual": 1e-10}
    assert result["measured"]["max_residual"] < 1e-10
    assert result["detail"] == {}


def test_criterion_09_fails_on_roots_of_another_volume(monkeypatch):
    solve_two_particle = ads3.solve_two_particle

    def misplaced(hcoup, volume):
        return dataclasses.replace(solve_two_particle(hcoup, volume + 1),
                                   volume=volume)

    monkeypatch.setattr(ads3, "solve_two_particle", misplaced)
    result = _fails("ads3")
    assert result["failures"] == []
    assert result["measured"]["max_residual"] > 0.5


def test_criterion_10_ed_self_checks():
    # The u = 0 free-fermion spectra of two sectors; the trace, spin-swap
    # and one-fermion identities hold at any coupling, so they are unit
    # tests in tests/test_ed_oracle.py.
    result, _ = _run("ed")
    assert result["attempted"] == 2 and result["detail"] == {}
    assert result["bound"] == {"free_fermion_gap": 1e-9}
    assert result["measured"]["free_fermion_gap"] < 1e-9


def test_criterion_10_fails_on_a_dropped_fermion_sign(monkeypatch):
    apply_hop = ed_oracle._apply_hop

    def bosonic(mask, src, dst):
        hop = apply_hop(mask, src, dst)
        return None if hop is None else (hop[0], 1)

    monkeypatch.setattr(ed_oracle, "_apply_hop", bosonic)
    assert _fails("ed")["measured"]["free_fermion_gap"] >= 1.0


def test_criterion_10_fails_on_a_hamiltonian_of_another_coupling(monkeypatch):
    build_hamiltonian = ed_oracle.build_hamiltonian

    def misplaced(lsites, coupling, sector):
        return build_hamiltonian(lsites, coupling + 0.1, sector)

    monkeypatch.setattr(ed_oracle, "build_hamiltonian", misplaced)
    assert _fails("ed")["measured"]["free_fermion_gap"] >= 0.1


# Battery -> its negative controls as (test, kind).
NEGATIVE_CONTROLS = {
    "qq": [(test_criterion_01_fails_on_a_corrupted_slot, "data")],
    "hodge": [(test_criterion_02_fails_on_a_flipped_hodge_sign, "data"),
              (test_criterion_02_fails_on_a_consistently_flipped_dual_pair, "data")],
    "hirota": [(test_criterion_03_fails_on_a_shifted_t_function, "mutation"),
               (test_criterion_03_fails_on_a_corrupted_slot, "data")],
    "liebwu": [(test_criterion_04_fails_on_a_non_real_energy, "mutation"),
               (test_criterion_04_fails_on_roots_of_another_coupling, "data")],
    "character": [(test_criterion_08_fails_on_a_corrupted_slot, "data")],
    "ads3": [(test_criterion_09_fails_on_roots_of_another_volume, "data")],
    "ed": [(test_criterion_10_fails_on_a_dropped_fermion_sign, "mutation"),
           (test_criterion_10_fails_on_a_hamiltonian_of_another_coupling, "data")],
}


def test_every_battery_has_a_data_control():
    names = {name for name, _ in BATTERIES}
    assert NEGATIVE_CONTROLS.keys() == names
    assert all(kind in ("data", "mutation")
               for controls in NEGATIVE_CONTROLS.values() for _, kind in controls)
    # A battery whose controls all patch its own code certifies that
    # code, not the paper: every battery needs a wrong-input control.
    mutation_only = {name for name, controls in NEGATIVE_CONTROLS.items()
                     if all(kind == "mutation" for _, kind in controls)}
    assert mutation_only == set()
    assert all(any(kind == "data" for _, kind in controls)
               for controls in NEGATIVE_CONTROLS.values())


def test_every_bound_is_reached_under_a_negative_control():
    # A gap that no control moves to its bound holds for any input, so it
    # belongs in a unit test, not in a battery.  The controls' results are
    # reused when they ran earlier in this pytest run; otherwise they run here.
    unreached = {}
    for name, controls in NEGATIVE_CONTROLS.items():
        if len(_CONTROL_RESULTS.get(name, ())) < len(controls):
            _CONTROL_RESULTS[name] = []
            for control, _ in controls:
                with pytest.MonkeyPatch.context() as monkeypatch:
                    control(monkeypatch)
        results = _CONTROL_RESULTS[name]
        for gap, bound in results[0]["bound"].items():
            if all(result["measured"][gap] < bound for result in results):
                unreached.setdefault(name, []).append(gap)
    assert unreached == {}


@pytest.mark.parametrize("rng_seed", [0, 1])
def test_every_battery_passes_at_other_seeds(rng_seed):
    # qq, hodge, hirota and character draw their inputs from the seed;
    # the suite must not pass at its default seed alone.
    results = {name: battery(rng_seed) for name, battery in BATTERIES}
    assert [name for name, result in results.items() if not result.ok] == []
