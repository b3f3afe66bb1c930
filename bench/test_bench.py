"""Tests of the benchmark itself: its gates, inputs, statistics and tracer."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from qsc22.exact_poly import TwistedPoly  # noqa: E402


@pytest.fixture(scope="module")
def inputs():
    return {name: wl.make_inputs(name, 1) for name in wl.WORKLOADS}


def _small_sector():
    return wl.Sector(2, 1.0, 2, 1, tuple(wl.admissible_modes(2, 2, 1)))


# Negative controls: each corruption must trip a gate.


def test_corrupted_q_slot_trips_the_qq_gate(inputs):
    with run.injected("qslot"), pytest.raises(wl.GateError, match="QQ"):
        wl.certify_random(inputs["exact_random"].rounds[0][0])
    with run.injected("qslot"), pytest.raises(wl.GateError, match="QQ"):
        wl.certify_character(inputs["exact_character"].rounds[0][0])


def test_nudged_energy_trips_the_oracle_gate():
    sector = _small_sector()
    assert wl.certify_sector(sector).max_gap < wl.ENERGY_TOL
    with run.injected("energy"), pytest.raises(wl.GateError, match="ED spectrum"):
        wl.certify_sector(sector)


@pytest.mark.parametrize("workload,fault", [
    ("exact_random", "qslot"), ("exact_character", "qslot"),
    ("liebwu_grid", "energy"), ("ed_large", "energy"),
])
def test_negative_controls_make_the_benchmark_exit_nonzero(workload, fault):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "0", "--inject", fault],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "wrong output" in proc.stderr


# Inputs


def test_same_seed_same_inputs_other_seed_other_inputs(inputs):
    for name in ("exact_random", "liebwu_grid", "ed_large"):
        again = wl.make_inputs(name, 1)
        assert again == inputs[name]
        assert wl.make_inputs(name, 2).rounds != inputs[name].rounds
    char = inputs["exact_character"]
    assert wl.make_inputs("exact_character", 1) == char
    assert wl.make_inputs("exact_character", 2).rounds != char.rounds


def test_warmup_item_is_not_timed(inputs):
    for name, inp in inputs.items():
        assert all(inp.warmup not in rnd for rnd in inp.rounds), name


def test_rounds_have_identical_composition(inputs):
    for rnd in inputs["exact_random"].rounds:
        assert sorted(wl._odd_degrees(s) for s in rnd) == sorted(wl.DEGREE_STRATA)
    for name in ("liebwu_grid", "ed_large"):
        shapes = {tuple((s.lsites, s.n_charge, s.m_spin) for s in rnd)
                  for rnd in inputs[name].rounds}
        assert len(shapes) == 1, name


def test_couplings_are_stratified_over_the_range():
    import random

    lo, hi = wl.COUPLING_RANGE
    draws = wl.stratified_couplings(random.Random(3), 3)
    assert lo <= draws[0] < lo * (hi / lo) ** (1 / 3) <= draws[1] < draws[2] <= hi


# Statistics


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    tail = run.tail_latency([float(x) for x in range(100, 0, -1)])
    assert tail == {"value": 90.0, "percentile": 90.0, "samples": 100, "beyond": 10}
    samples = [0.5 * k for k in range(1, 26)]
    tail = run.tail_latency(samples)
    assert sum(x > tail["value"] for x in samples) == 10
    assert tail["percentile"] == 60.0
    # The next order statistic up leaves only nine samples beyond it.
    higher = sorted(samples)[samples.index(tail["value"]) + 1]
    assert sum(x > higher for x in samples) == 9
    assert run.tail_latency([2.0, 1.0])["beyond"] == 0


# Tracer


def test_traced_self_times_add_up_and_counts_repeat(inputs):
    pair = inputs["exact_character"].rounds[0][0]
    tracer = tracing.Tracer()
    counts = []
    with tracer.installed():
        for _ in range(2):
            before = dict(tracer.calls)
            tracer.item(wl.certify_character, pair)
            counts.append({k: v - before.get(k, 0) for k, v in tracer.calls.items()})
    assert counts[0] == counts[1]
    assert counts[0]["qsystem.check_qq"] == 2
    assert counts[0]["ty_system.wronskian_T"] == 2
    # The originals are back after the block.
    assert not hasattr(wl.qsystem.check_qq, "__wrapped__")
    assert not hasattr(TwistedPoly.shift, "__wrapped__")


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert run.WORKLOADS == wl.WORKLOADS == tuple(wl.TAIL_ROUNDS)
    tiny = wl.Inputs(_small_sector(), [[_small_sector()]])
    attempted, failed, metrics, _ = run.end_to_end(wl, "liebwu_grid", tiny, 0.0, 1.0)
    assert attempted >= 1 and failed == 0
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    assert [u for _, u in metrics.values()] == [m["unit"] for m in spec["end_to_end"]]
    _, _, metrics, _ = run.traced(wl, "liebwu_grid", tiny, 0.0)
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
    spans = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert spans + metrics["trace.unaccounted_s"][0] == pytest.approx(
        metrics["trace.item_s"][0], rel=1e-9)
