"""End-to-end coverage of the qsc22 command line interface."""

from __future__ import annotations

import cmath
import json
import math
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from qsc22 import acceptance, qsystem
from qsc22.analytic_layer import shell_pair, shell_pairs, u_of_x
from qsc22.cli import main


README = Path(__file__).resolve().parents[1] / "README.md"
# One massive root pair on the shell at h = 1, as JSON [re, im] lists.
_SHELL_PLUS, _SHELL_MINUS = ([z.real, z.imag] for z in shell_pair(1.0, 0.7))


def _run(*args, **kwargs):
    return CliRunner().invoke(main, list(args), **kwargs)


def _readme_examples() -> list:
    """The README's sh blocks that show an expected output.

    Each block becomes a list of (argv, expected) pairs, up to the last
    command followed by `# {...}` lines; expected is the JSON text of
    those lines, or "" for a command shown without output.
    """
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                            re.S):
        steps = []
        for line in block.splitlines():
            if line.startswith("qsc22 "):
                steps.append((shlex.split(line, comments=True)[1:], []))
            elif line.startswith("#") and steps:
                steps[-1][1].append(line.lstrip("#").strip())
        shown = [i for i, (_, lines) in enumerate(steps) if lines]
        if shown:
            examples.append([(argv, "".join(lines))
                             for argv, lines in steps[:shown[-1] + 1]])
    return examples


def test_readme_examples_hold(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = _readme_examples()
    assert [argv[0] for steps in examples for argv, _ in steps] == [
        "gen-qsystem", "check-qq", "character", "solve-liebwu", "compare"]
    for steps in examples:
        for argv, expected in steps:
            result = _run(*argv)
            assert result.exit_code == 0, (argv, result.output)
            if expected:
                assert json.loads(result.stdout) == json.loads(expected), argv


def test_solve_liebwu_single_mode_matches_ed():
    # `compare` is the one path from Lieb-Wu roots to the oracle: its row
    # for the mode set I = (0) carries the energy solve-liebwu prints.
    args = ("--L", "2", "--u", "1", "--N", "1", "--M", "0")
    single = _run("solve-liebwu", *args, "--I", "0")
    assert single.exit_code == 0
    payload = json.loads(single.stdout)
    assert payload["ok"] is True
    assert payload["residual"] < 1e-12
    matches = json.loads(_run("compare", *args).stdout)["matches"]
    assert [(m["E"], m["gap"]) for m in matches if m["I"] == [0]] == [
        (payload["E"], 0.0)]
    assert _run("solve-liebwu", *args, "--I", "0", "--compare-ed").exit_code == 2


def test_solve_liebwu_vacuum():
    result = _run("solve-liebwu", "--L", "2", "--u", "1", "--N", "0",
                  "--M", "0")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload == {"E": 2.0, "P": 0.0, "k": [], "lambda": [],
                       "ok": True, "residual": 0.0}


def test_solve_liebwu_rejects_duplicate_modes():
    # At L = 2 the modes 0 and 2 give one momentum: no Bethe state.
    for second in ("0", "2"):
        result = _run("solve-liebwu", "--L", "2", "--u", "1", "--N", "2",
                      "--M", "0", "--I", "0", "--I", second)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "distinct" in result.stderr


def test_solve_liebwu_needs_parameters():
    result = _run("solve-liebwu", "--u", "1", "--N", "1", "--M", "0")
    assert result.exit_code == 2
    assert "--L" in result.stderr


def test_gen_qsystem_round_trip(tmp_path):
    path = tmp_path / "seed.json"
    gen = _run("gen-qsystem", "--rng-seed", "5", "--out", str(path))
    assert gen.exit_code == 0
    check = _run("check-qq", "--seed", str(path))
    assert check.exit_code == 0
    payload = json.loads(check.stdout)
    assert payload["ok"] is True
    assert payload["checked"] == 49
    assert payload["failures"] == []


def test_gen_qsystem_full_reports_a_failed_qq_check(monkeypatch):
    # A wrong sign convention makes the generated components break QQ.
    monkeypatch.setitem(qsystem._COMPONENT, "1|1", (1, (1, 4)))
    result = _run("gen-qsystem", "--rng-seed", "5", "--full")
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert payload["ok"] is False and payload["rng_seed"] == 5
    assert payload["failures"]


def _check_corrupted(tmp_path, slot: str, k: int):
    """check-qq on gen-qsystem 5 with 1 added to the numerator of the
    real part of coefficient k of the slot's first term."""
    full = json.loads(_run("gen-qsystem", "--rng-seed", "5", "--full").stdout)
    coeff = full["Q"][slot]["terms"][0]["coeffs"][k]
    coeff[0] = str(int(coeff[0]) + 1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(full), encoding="utf-8")
    return _run("check-qq", "--seed", str(path))


def test_check_qq_detects_corruption(tmp_path):
    result = _check_corrupted(tmp_path, "1|1", 1)
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert payload["ok"] is False
    assert any("1|1" in name for name in payload["failures"])


def test_check_qq_pins_the_check_order(tmp_path):
    result = _check_corrupted(tmp_path, "12|12", 0)
    assert result.exit_code == 1
    assert json.loads(result.stdout)["failures"] == [
        "det", "orth[.|11]", "orth[.|22]", "orth[11|.]", "orth[22|.]",
        "l2c[1,+]", "l2c*[1,+]", "l2c[1,-]", "l2c*[1,-]",
        "l2c[2,+]", "l2c*[2,+]", "l2c[2,-]", "l2c*[2,-]",
        "l2d[1,+]", "l2d*[1,+]", "l2d[1,-]", "l2d*[1,-]",
        "l2d[2,+]", "l2d*[2,+]", "l2d[2,-]", "l2d*[2,-]"]


def test_check_qq_malformed_input(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json", encoding="utf-8")
    assert _run("check-qq", "--seed", str(path)).exit_code == 2
    missing = tmp_path / "absent.json"
    assert _run("check-qq", "--seed", str(missing)).exit_code == 2


def test_check_qq_refuses_a_two_twist_even_seed(tmp_path):
    data = json.loads(_run("gen-qsystem", "--rng-seed", "3").stdout)
    # B0 = 1 + 2^(-2iu) has two twists, and exact_div refuses such a divisor.
    data["B0"]["terms"].append({"s": ["2", "1", "0", "1"], "coeffs": [["1", "1", "0", "1"]]})
    path = tmp_path / "two_twist.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    result = _run("check-qq", "--seed", str(path))
    assert result.exit_code == 2
    assert result.stdout == "" and "cannot build system" in result.stderr


def _seed_file(tmp_path, rng_seed=3) -> str:
    path = tmp_path / f"seed{rng_seed}.json"
    assert _run("gen-qsystem", "--rng-seed", str(rng_seed),
                "--out", str(path)).exit_code == 0
    return str(path)


def test_check_hirota_random(tmp_path):
    for rng_seed in (3, 4):
        result = _run("check-hirota", "--seed", _seed_file(tmp_path, rng_seed))
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["ok"] is True and payload["failures"] == []
        assert payload["checked"] == 20
        assert "0,0" in payload["skipped"]


def test_check_hirota_bad_q_entry_is_an_input_error(tmp_path):
    full = json.loads(_run("gen-qsystem", "--rng-seed", "5", "--full").stdout)
    full["Q"]["1|1"]["terms"][0]["coeffs"][1][0] = "not-a-number"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(full), encoding="utf-8")
    result = _run("check-hirota", "--seed", str(path))
    assert result.exit_code == 2
    assert "cannot build system" in result.stderr


def _seed_with_b0_coefficient(tmp_path, coeff) -> str:
    """gen-qsystem 5's B-seed, whose B0 is the constant 1, with that
    coefficient written as `coeff`."""
    data = json.loads(_run("gen-qsystem", "--rng-seed", "5").stdout)
    assert data["B0"]["terms"][0]["coeffs"] == [["1", "1", "0", "1"]]
    data["B0"]["terms"][0]["coeffs"][0] = coeff
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", ["check-qq", "check-hirota"])
def test_seed_entries_must_be_integers(tmp_path, command):
    # JSON ints and decimal-integer strings load; a float or a boolean
    # that int() would truncate to the same constant 1 is a usage error.
    result = _run(command, "--seed", _seed_with_b0_coefficient(tmp_path, [1, "1", 0, 1]))
    assert result.exit_code == 0, result.output
    for coeff in ([1.5, True, False, True], [True, 1, 0, 1], ["1.0", "1", "0", "1"],
                  [" 1", "1", "0", "1"]):
        result = _run(command, "--seed", _seed_with_b0_coefficient(tmp_path, coeff))
        assert result.exit_code == 2, (coeff, result.output)
        assert "bad seed file" in result.stderr


def test_ed_json():
    result = _run("ed", "--L", "2", "--u", "1", "--nup", "1", "--ndown", "0")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["sector"] == [1, 0]
    assert payload["eigenvalues"][0] == -2.0
    assert payload["eigenvalues"][-1] == 2.0


def test_ed_rejects_bad_sector():
    assert _run("ed", "--L", "2", "--u", "1", "--nup", "3",
                "--ndown", "0").exit_code == 2
    oversized = _run("ed", "--L", "12", "--u", "1", "--nup", "6", "--ndown", "6")
    assert oversized.exit_code == 2
    assert "exceeds cap" in oversized.stderr


def test_huge_finite_couplings_solve():
    # At u = 1e200 the counting Jacobian must not square u, and at
    # u = 1e307 the eigh certificate's norm of H V - V Lambda must not
    # overflow: both are formed on scaled quantities.
    result = _run("solve-liebwu", "--L", "3", "--u", "1e200", "--N", "2", "--M", "1",
                  "--I", "0", "--I", "1", "--J", "-1")
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["ok"] is True and payload["E"] == -1e200
    assert payload["residual"] < 1e-12
    # Near the top of the float range the singular-factor guard of the
    # product-form residuals must not overflow either.
    result = _run("solve-liebwu", "--L", "3", "--u", "1.7e308", "--N", "2", "--M", "1",
                  "--I", "0", "--I", "1", "--J", "-1")
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["ok"] is True and payload["E"] == -1.7e308
    assert payload["residual"] < 1e-12
    result = _run("compare", "--L", "3", "--u", "1e200", "--N", "2", "--M", "1")
    assert result.exit_code == 0, result.output
    payload = json.loads(result.stdout)
    assert payload["ok"] is True
    assert payload["solutions"] == payload["candidates"] == 3
    # One fermion of each spin on 3 sites: doubly occupied sites give
    # 3u, the other six states -u, up to hopping terms far below an ulp.
    result = _run("ed", "--L", "3", "--u", "1e307", "--nup", "1", "--ndown", "1")
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["eigenvalues"] == pytest.approx(
        [-1e307] * 6 + [3e307] * 3, rel=1e-12)


def test_ed_small_sector_of_a_long_chain():
    result = _run("ed", "--L", "40", "--u", "1", "--nup", "1", "--ndown", "0")
    assert result.exit_code == 0
    assert len(json.loads(result.stdout)["eigenvalues"]) == 40


def test_character_explicit_twists():
    result = _run("character", "--sx", "3/5,4/5", "--sy", "5/13,12/13")
    assert result.exit_code == 0
    assert result.stdout.strip() == (
        '{"hirota":true,"hodge_trivial":true,"ok":true,"qq":true,'
        '"shift_invariant":true,"sx":"3/5+4/5i","sy":"5/13+12/13i"}')


def test_character_rejects_degenerate_twists():
    result = _run("character", "--sx", "3/5,4/5", "--sy", "3/5,4/5")
    assert result.exit_code == 2
    assert "degenerate" in result.stderr


def test_compare_sector():
    result = _run("compare", "--L", "2", "--u", "1", "--N", "1", "--M", "0")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["ok"] is True
    assert payload["solutions"] == 2 and payload["candidates"] == 2
    assert payload["max_gap"] < 1e-8
    assert [(m["I"], m["E"], m["gap"]) for m in payload["matches"]] == [
        ([0], -2.0, 0.0), ([1], 2.0, 0.0)]


def _nested_input(tmp_path, **overrides) -> str:
    yplus, yminus = shell_pairs(1.0, [0.7, -0.7])
    seed_x = 1j * cmath.exp(-0.3j)
    seed_w = cmath.exp(2.9j) / 1j
    payload = {
        "h": 1.0,
        "yplus": [[y.real, y.imag] for y in yplus],
        "yminus": [[y.real, y.imag] for y in yminus],
        "twist_x": [math.cos(0.3), math.sin(0.3)],
        "twist_y": [math.cos(0.2), -math.sin(0.2)],
        "seed": {"x1e": [[seed_x.real, seed_x.imag]],
                 "u11": [[-0.6, 0.1]],
                 "x112": [[seed_w.real, seed_w.imag]]},
        **overrides,
    }
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_solve_nested_from_file(tmp_path):
    # Mtheta and counts are optional; when given they must equal the
    # pair count and the seed list lengths.
    outputs = []
    for extra in ({}, {"Mtheta": 2}, {"counts": [1, 1, 1]}):
        result = _run("solve-nested", "--input", _nested_input(tmp_path, **extra))
        assert result.exit_code == 0
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    out = json.loads(outputs[0])
    assert out["ok"] is True
    assert out["residual"] < 1e-12
    assert abs(out["roots"]["x1e"][0][0] - -9.0792186463333) < 1e-9
    assert abs(out["roots"]["u11"][0][0] - -1.3197361875357865) < 1e-9
    assert abs(out["roots"]["x112"][0][0] - -2.119023208181012) < 1e-9


def test_solve_nested_rejects_bad_input(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"h": 1.0}), encoding="utf-8")
    assert _run("solve-nested", "--input", str(path)).exit_code == 2
    # An Mtheta that differs from the pair count; without pairs the
    # equations would be solved with no source term.
    for overrides in ({"Mtheta": 3}, {"Mtheta": 0},
                      {"Mtheta": 2, "yplus": [], "yminus": []}):
        result = _run("solve-nested", "--input", _nested_input(tmp_path, **overrides))
        assert result.exit_code == 2, overrides
        assert result.stdout == "" and "Mtheta" in result.stderr
    # counts that differ from the seed list lengths.
    for counts in ([1, 1, 0], [0, 2, 1], [1, 1], [2, 1, 1]):
        result = _run("solve-nested", "--input",
                      _nested_input(tmp_path, counts=counts))
        assert result.exit_code == 2, counts
        assert result.stdout == "" and "counts" in result.stderr
    # A coupling that is not finite and positive, with the full seed and
    # with an x1e-only seed.
    x1e_only = {"x1e": [[0.0, 1.0]], "u11": [], "x112": []}
    for overrides in ({"h": math.nan}, {"h": math.nan, "seed": x1e_only},
                      {"h": math.inf, "yplus": [], "yminus": []}):
        result = _run("solve-nested", "--input", _nested_input(tmp_path, **overrides))
        assert result.exit_code == 2, overrides
        assert result.stdout == "" and "coupling" in result.stderr
    # A root pair that is not finite, or that holds a zero root.
    yplus, yminus = shell_pairs(1.0, [0.7, -0.7])
    for overrides in ({"yplus": [[math.nan, 0.0], [yplus[1].real, yplus[1].imag]]},
                      {"yplus": [[math.nan, 0.0]] * 2, "yminus": [[math.nan, 0.0]] * 2},
                      {"yminus": [[yminus[0].real, math.inf],
                                  [yminus[1].real, yminus[1].imag]]}):
        result = _run("solve-nested", "--input", _nested_input(tmp_path, **overrides))
        assert result.exit_code == 2, overrides
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.stdout == "" and "bad nested input" in result.stderr
    result = _run("solve-nested", "--input", _nested_input(
        tmp_path, yminus=[[0.0, 0.0], [yminus[1].real, yminus[1].imag]]))
    assert result.exit_code == 2 and "shift constraint" in result.stderr
    # A twist that is not finite: json.load reads NaN and Infinity.
    for overrides in ({"twist_x": [math.nan, 0.0]}, {"twist_x": [math.inf, 0.0]},
                      {"twist_y": [0.0, -math.inf]}):
        result = _run("solve-nested", "--input", _nested_input(tmp_path, **overrides))
        assert result.exit_code == 2, overrides
        assert result.stdout == "" and "bad nested input" in result.stderr
        assert "finite and nonzero" in result.stderr
    # A seed on a pole: u11 = u(x1e) + i/2 zeroes a factor of the
    # first-sheet equation.
    seed_x = 1j * cmath.exp(-0.3j)
    pole = u_of_x(seed_x, 1.0) + 0.5j
    seed = {"x1e": [[seed_x.real, seed_x.imag]], "u11": [[pole.real, pole.imag]],
            "x112": []}
    result = _run("solve-nested", "--input", _nested_input(tmp_path, seed=seed))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.stdout == "" and "pole" in result.stderr


@pytest.mark.parametrize("overrides", [
    {"seed": [1, 2]},
    # An x root at 0 sits at u = infinity.
    {"seed": {"x1e": [[0.0, 0.0]], "u11": [[-0.6, 0.1]], "x112": []}},
    {"seed": {"x1e": [], "u11": [[-0.6, 0.1]], "x112": [[0.0, 0.0]]}},
    {"twist_y": [0, 0]},
    # Counts are JSON integers; 2.5 and 1.5 would truncate to valid ones.
    {"Mtheta": 2.5},
    {"counts": [1.5, 1, 1]},
])
def test_solve_nested_input_errors_are_usage_errors(overrides, tmp_path):
    result = _run("solve-nested", "--input", _nested_input(tmp_path, **overrides))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.stdout == "" and "Error:" in result.stderr


@pytest.mark.parametrize("overrides", [
    {"h": True},
    {"h": "1.0"},
    {"yplus": [[True, 0.0], [0.5, 0.5]]},
    {"twist_x": [True, False]},
    {"twist_y": ["1", "0"]},
    {"seed": {"x1e": [[0.0, 1.0]], "u11": [[True, False]], "x112": []}},
])
def test_solve_nested_rejects_booleans_and_strings_as_numbers(overrides, tmp_path):
    result = _run("solve-nested", "--input", _nested_input(tmp_path, **overrides))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.stdout == "" and "expected a JSON number" in result.stderr


@pytest.mark.parametrize("data", [
    {"hcoup": True, "L": 8},
    {"hcoup": "1.0", "L": 8},
    {"hcoup": 1.0, "L": 8, "y1": [[True, False]]},
    {"hcoup": 1.0, "L": 8, "xp": [[_SHELL_PLUS[0], "0"]], "xm": [_SHELL_MINUS]},
])
def test_ads3_residuals_rejects_booleans_and_strings_as_numbers(data, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    result = _run("ads3-residuals", "--input", str(path))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.stdout == "" and "expected a JSON number" in result.stderr


def test_ads3_residuals_two_particle():
    result = _run("ads3-residuals", "--mode", "two")
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["ok"] is True
    assert payload["max_residual"] < 1e-10
    assert abs(payload["momentum_defect"][0]) < 1e-12


def test_ads3_residuals_single_pair_at_the_largest_winding():
    # 2 * 3 < 8: the largest winding with a single-pair state at L = 8.
    result = _run("ads3-residuals", "--mode", "single", "--L", "8", "--winding", "3")
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["ok"] is True


@pytest.mark.parametrize("args", [
    ("solve-liebwu", "--L", "2", "--u", "nan", "--N", "1", "--M", "0", "--I", "0"),
    ("solve-liebwu", "--L", "2", "--u", "inf", "--N", "1", "--M", "0", "--I", "0"),
    ("solve-liebwu", "--L", "2", "--u", "0", "--N", "1", "--M", "0", "--I", "0"),
    ("solve-liebwu", "--L", "2", "--u", "-1", "--N", "1", "--M", "0", "--I", "0"),
    ("solve-liebwu", "--L", "0", "--u", "1", "--N", "1", "--M", "0", "--I", "0"),
    ("ed", "--L", "2", "--u", "nan", "--nup", "1", "--ndown", "0"),
    ("compare", "--L", "2", "--u", "nan", "--N", "1", "--M", "0"),
    ("compare", "--L", "2", "--u", "-1", "--N", "1", "--M", "0"),
    ("ads3-residuals", "--h", "-1"),
    ("ads3-residuals", "--h", "nan"),
    ("ads3-residuals", "--L", "0"),
    ("ads3-residuals", "--winding", "0"),
    ("ads3-residuals", "--mode", "single", "--winding", "-1"),
    # A single pair has L*p < L*pi, so no state has 2*winding >= L.
    ("ads3-residuals", "--mode", "single", "--L", "8", "--winding", "4"),
    ("ads3-residuals", "--mode", "single", "--L", "8", "--winding", "5"),
    # --mode aux solves one state; a winding would be ignored.
    ("ads3-residuals", "--mode", "aux", "--winding", "5"),
    # A dict stands for a JSON input file with that content.
    ("ads3-residuals", "--input", {"hcoup": math.nan, "L": 8}),
    ("ads3-residuals", "--input", {"hcoup": 1.0, "L": -3}),
    ("ads3-residuals", "--input",
     {"hcoup": 1.0, "L": 8, "xp": [[math.nan, 0]], "xm": [[math.nan, 0]]}),
    ("ads3-residuals", "--input", {"hcoup": 1.0, "L": 8, "y1": [[math.inf, 0]]}),
    # The input file holds the whole state; solver flags would be ignored.
    ("ads3-residuals", "--input", {"hcoup": 1.0, "L": 8}, "--L", "3", "--h", "7",
     "--mode", "single", "--winding", "4"),
    ("ads3-residuals", "--input", {"hcoup": 1.0, "L": 8}, "--mode", "two"),
    ("ads3-residuals", "--input", {"hcoup": 1.0, "L": 8}, "--winding", "1"),
    # A volume that is not a JSON integer.
    ("ads3-residuals", "--input", {"hcoup": 1.0, "L": 8.7}),
    ("ads3-residuals", "--input", {"hcoup": 1.0, "L": True}),
    # An auxiliary root at 0 sits at u = infinity.
    ("ads3-residuals", "--input", {"hcoup": 1.0, "L": 8, "xp": [_SHELL_PLUS],
                                   "xm": [_SHELL_MINUS], "y1b": [[0, 0]]}),
    # An auxiliary root on a massive root zeroes a factor of the equations.
    ("ads3-residuals", "--input", {"hcoup": 1.0, "L": 8, "xp": [_SHELL_PLUS],
                                   "xm": [_SHELL_MINUS], "y1": [_SHELL_PLUS]}),
    # --out on a directory, and on a file under a missing directory.
    ("gen-qsystem", "--rng-seed", "5", "--out", "TMP"),
    ("gen-qsystem", "--rng-seed", "5", "--out", "TMP/absent/seed.json"),
    ("check-hirota", "--seed", "SEED", "--window", "-1,2"),
    ("check-hirota", "--seed", "SEED", "--window", "0,0"),
    ("character", "--sx", "0,0", "--sy", "1,1"),
    # A coupling whose diagonal u (S_up S_down^T) overflows the floats.
    ("ed", "--L", "3", "--u", "1e308", "--nup", "1", "--ndown", "1"),
    ("compare", "--L", "3", "--u", "1e308", "--N", "2", "--M", "1"),
    # Spin modes on the window edge M - N <= J <= -1 put a root at infinity.
    ("solve-liebwu", "--L", "2", "--u", "1", "--N", "2", "--M", "1",
     "--I", "0", "--I", "1", "--J", "0"),
    # At u = 1.7e308 the product-form factors of two spin roots leave the
    # float range (2u overflows), so the solved roots cannot be validated.
    ("solve-liebwu", "--L", "4", "--u", "1.7e308", "--N", "4", "--M", "2",
     "--I", "0", "--I", "1", "--I", "2", "--I", "3", "--J", "-2", "--J", "-1"),
    # A single site has no hopping bond, so Lieb-Wu and ED disagree there.
    ("compare", "--L", "1", "--u", "1", "--N", "1", "--M", "0"),
    ("solve-liebwu", "--L", "1", "--u", "1", "--N", "1", "--M", "0", "--I", "0"),
])
def test_out_of_range_inputs_are_usage_errors(args, tmp_path):
    def materialize(arg):
        if arg == "SEED":
            return _seed_file(tmp_path)
        if isinstance(arg, dict):
            path = tmp_path / "input.json"
            path.write_text(json.dumps(arg), encoding="utf-8")
            return str(path)
        if arg.startswith("TMP"):
            return str(tmp_path) + arg[3:]
        return arg

    result = _run(*map(materialize, args))
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.stdout == "" and "Error:" in result.stderr


def test_suite_subset():
    outputs = []
    for _ in range(2):
        result = _run("suite", "--only", "hodge")
        assert result.exit_code == 0
        assert "[PASS] hodge" in result.stderr
        payload = json.loads(result.stdout)
        assert payload["ok"] is True and payload["first_failure"] is None
        assert [r["name"] for r in payload["results"]] == ["hodge"]
        assert set(payload["results"][0]) == {
            "name", "ok", "margin", "attempted", "failures", "measured",
            "bound", "skipped", "detail", "seconds"}
        # Wall time is the one field that may differ between runs.
        assert payload["results"][0].pop("seconds") >= 0.0
        outputs.append(json.dumps(payload, sort_keys=True))
    assert outputs[0] == outputs[1]


# Every subcommand's parameters.  Randomized exact corpora run only in
# `suite`; each command has one input path and one output format.
COMMAND_PARAMS = {
    "check-qq": {"seed_path"},
    "gen-qsystem": {"rng_seed", "out", "full"},
    "check-hirota": {"seed_path", "window"},
    "character": {"sx", "sy"},
    "solve-nested": {"input_path"},
    "solve-liebwu": {"lsites", "coupling", "n_charge", "m_spin", "mode_k",
                     "mode_lam"},
    "ed": {"lsites", "coupling", "nup", "ndown"},
    "compare": {"lsites", "coupling", "n_charge", "m_spin"},
    "ads3-residuals": {"hcoup", "volume", "mode", "winding", "input_path"},
    "suite": {"only", "rng_seed"},
}


def test_no_subcommand_takes_a_tolerance():
    # The bounds live in qsc22.acceptance; no option loosens them, and
    # `suite --only` replaces the commands that re-ran one battery.
    assert len(main.commands) == 10
    params = {name: [param.name for param in command.params]
              for name, command in main.commands.items()}
    assert {name: set(names) for name, names in params.items()} == COMMAND_PARAMS
    assert sum(len(names) for names in params.values()) == 30
    for name, names in params.items():
        assert "tol" not in names, name
    for name in ("check-f", "pmu-check", "ads3-crossing"):
        assert _run(name).exit_code == 2
    assert _run("suite", "--only", "pmu").exit_code == 2
    assert _run("suite", "--only", "hodge", "--tol", "0").exit_code == 2


def test_suite_unknown_battery():
    assert _run("suite", "--only", "nosuch").exit_code == 2


def test_readme_names_only_existing_batteries():
    names = {name for name, _ in acceptance.BATTERIES}
    mentioned = re.findall(r"--only\s+([\w-]+)", README.read_text(encoding="utf-8"))
    assert mentioned and set(mentioned) <= names, set(mentioned) - names
