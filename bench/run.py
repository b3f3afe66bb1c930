"""Benchmark of qsc22 certification: one workload, one seed, one run.

    python3 bench/run.py --workload exact_random --seed 1 --seconds 20 --trace 0

Each run is a single-process, single-threaded closed loop with one
client: it certifies one item at a time for --seconds seconds and fails
(exit 1, no result line) on any wrong output.  With --trace 0 it reports
the end-to-end metrics; with --trace 1 it alternates untraced and traced
passes over a fixed item set and reports per-layer metrics per item.
The last line of stdout is the result object; the line before it holds
the details (tail percentile, solver failures, input descriptors and the
environment).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("exact_random", "exact_character", "liebwu_grid", "ed_large")
SETUP_REPEATS = 3
TAIL_BEYOND = 10

# Machine-speed calibration.  On a shared host the wall time of the same
# work drifts by up to 1.8x over minutes, which no statistic inside one
# run can remove.  So the run times a fixed integer loop -- independent
# of qsc22, and allocating no object the cyclic collector tracks, so it
# never pays for the program's garbage -- at least every CAL_INTERVAL_S
# between items, and rescales each timed interval to the speed at which
# that loop takes CAL_NOMINAL_S, the fast state of the 2-core Xeon that
# recorded the first baseline.  Wall-clock figures stay in the details.
CAL_LOOP = 20_000
CAL_NOMINAL_S = 1.25e-3
CAL_INTERVAL_S = 0.2


def tail_latency(samples: Sequence[float]) -> dict:
    """Latency at the highest percentile with >= 10 samples beyond it.

    That is the 11th-largest sample, at percentile 100 * (n - 10) / n.
    With fewer than 11 samples no percentile qualifies and the maximum
    is reported with the number of samples actually beyond it (0).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n,
                "beyond": 0}
    k = n - TAIL_BEYOND - 1
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / n,
            "samples": n, "beyond": n - k - 1}


def calibration_s() -> float:
    """Best of three timings of the calibration loop."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CAL_LOOP):
            acc += (i * i) % 7
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedClock:
    """Times calls in wall seconds and in seconds at nominal speed."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._due = -math.inf
        self._scale = 1.0

    def recalibrate(self) -> None:
        cal = calibration_s()
        self.samples.append(cal)
        self._scale = CAL_NOMINAL_S / cal
        self._due = time.perf_counter() + CAL_INTERVAL_S

    def time(self, fn, *args):
        """(fn(*args), wall seconds, seconds at nominal speed)."""
        if time.perf_counter() >= self._due:
            self.recalibrate()
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        return out, wall, wall * self._scale

    def summary(self) -> dict:
        return {"count": len(self.samples), "min": min(self.samples),
                "median": statistics.median(self.samples),
                "max": max(self.samples)}


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "seed": seed,
    }


def import_program():
    """Import the package from this checkout's src/ only, with one BLAS
    thread and the package's own thread pool left unconfigured."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("QSC_THREADS", None)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    workloads = importlib.import_module("workloads")
    qsc22 = sys.modules["qsc22"]
    if Path(qsc22.__file__).resolve().parent.parent != src:
        raise ImportError(f"qsc22 imported from {qsc22.__file__}, not {src}")
    return workloads


@contextlib.contextmanager
def injected(fault: str | None):
    """Negative controls: corrupt one output so that a gate must trip."""
    from qsc22 import hubbard_bethe, qsystem, ty_system

    def corrupt_slot(fn):
        def wrapper(*args, **kwargs):
            q = fn(*args, **kwargs)
            slots = {slot: q[slot] for slot in qsystem.SLOTS}
            slots["1|1"] = slots["1|1"] + 1
            return qsystem.QSystem(slots)
        return wrapper

    def nudge_energy(fn):
        def wrapper(*args, **kwargs):
            energy, momentum = fn(*args, **kwargs)
            return energy + 1e-6, momentum
        return wrapper

    patches = {
        None: [],
        "qslot": [(qsystem, "generate_from_seed", corrupt_slot),
                  (ty_system, "character_solution", corrupt_slot)],
        "energy": [(hubbard_bethe, "energy_momentum", nudge_energy)],
    }[fault]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, make in patches:
            setattr(owner, attr, make(getattr(owner, attr)))
        yield
    finally:
        for owner, attr, orig in saved:
            setattr(owner, attr, orig)


def timed_loop(certify, rounds, seconds: float, min_rounds: int,
               clock: "SpeedClock"):
    """Certify whole rounds back to back until --seconds have passed and
    at least min_rounds rounds are done.

    Only whole rounds are timed, so every run certifies the same mix of
    item kinds however fast the machine is.  Returns the items, their
    outcomes, and their wall and nominal-speed latencies.
    """
    items, outcomes, wall, nominal = [], [], [], []
    start = time.perf_counter()
    for done, rnd in enumerate(rounds, start=1):
        for item in rnd:
            out, raw_s, nominal_s = clock.time(certify, item)
            items.append(item)
            outcomes.append(out)
            wall.append(raw_s)
            nominal.append(nominal_s)
        if done >= min_rounds and time.perf_counter() - start >= seconds:
            break
    return items, outcomes, wall, nominal


def end_to_end(wl, name: str, inputs, seconds: float, setup_s: float):
    clock = SpeedClock()
    start = time.perf_counter()
    size = len(inputs.rounds[0])
    tail_rounds = wl.TAIL_ROUNDS[name]
    items, outcomes, wall, lat = timed_loop(
        wl.CERTIFY[name], inputs.round_stream(), seconds, tail_rounds, clock)
    loop_s = time.perf_counter() - start
    by_round = [lat[k:k + size] for k in range(0, len(lat), size)]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    tail = tail_latency(lat[:tail_rounds * size])
    metrics = {
        "throughput_per_s": (statistics.median(size / sum(r) for r in by_round), "1/s"),
        "latency_p50_s": (statistics.median(statistics.median(r) for r in by_round), "s"),
        "latency_tail_s": (tail["value"], "s"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {
        "items": len(items),
        "rounds": len(by_round),
        "tail": tail,
        "failed_ratio": failed / attempted,
        "max_oracle_gap": max(o.max_gap for o in outcomes),
        "wall": {"loop_s": loop_s,
                 "throughput_per_s": len(items) / loop_s,
                 "latency_p50_s": statistics.median(wall),
                 "latency_tail_s": tail_latency(wall[:tail_rounds * size])["value"]},
        "calibration_s": clock.summary(),
        "descriptors": wl.DESCRIBE[name](items),
    }
    return attempted, failed, metrics, details


def traced(wl, name: str, inputs, seconds: float):
    import tracing

    certify = wl.CERTIFY[name]
    items = inputs.rounds[0]
    tracer = tracing.Tracer()
    clock = time.perf_counter
    plain_s: List[float] = []
    traced_s: List[float] = []
    first_counts = None
    outcomes = []
    deadline = clock() + seconds
    while True:
        t0 = clock()
        for item in items:
            certify(item)
        plain_s.append(clock() - t0)
        before = _count_snapshot(tracer)
        with tracer.installed():
            t0 = clock()
            outcomes.extend(tracer.item(certify, item) for item in items)
            traced_s.append(clock() - t0)
        counts = {k: v - before.get(k, 0) for k, v in _count_snapshot(tracer).items()}
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            raise RuntimeError("call counts differ between identical traced passes")
        if clock() >= deadline:
            break
    passes = len(traced_s)
    n = passes * len(items)
    metrics: Dict[str, tuple] = {}
    for span in tracing.SPAN_NAMES[1:]:
        metrics[f"{span}.calls"] = (tracer.calls[span] / n, "count")
        metrics[f"{span}.self_s"] = (tracer.self_s[span] / n, "s")
    for span in tracing.FAILING:
        metrics[f"{span}.failed"] = (tracer.failed[span] / n, "count")
    metrics["exact_poly.gaussrat.created"] = (
        tracer.counters["exact_poly.gaussrat.created"] / n, "count")
    metrics["ed_oracle.spectrum.dim3_sum"] = (
        tracer.counters["ed_oracle.spectrum.dim3_sum"] / n, "count")
    metrics["ed_oracle.spectrum.dim_max"] = (tracer.dim_max, "count")
    metrics["newton.residual_evals"] = metrics.pop("hubbard_bethe.residual.calls")
    solves = tracer.calls["hubbard_bethe.solve_liebwu"]
    metrics["hubbard_bethe.solve_liebwu.success_ratio"] = (
        (solves - tracer.failed["hubbard_bethe.solve_liebwu"]) / solves if solves else 1.0,
        "ratio")
    metrics["hubbard_bethe.oracle_gap.max"] = (max(o.max_gap for o in outcomes), "energy")
    metrics["trace.overhead_ratio"] = (
        statistics.median(t / p for t, p in zip(traced_s, plain_s)), "ratio")
    metrics["trace.unaccounted_s"] = (tracer.self_s[tracing.ROOT] / n, "s")
    metrics["trace.item_s"] = (sum(tracer.self_s.values()) / n, "s")
    details = {"passes": passes, "items_per_pass": len(items),
               "plain_pass_s": plain_s, "traced_pass_s": traced_s,
               "descriptors": wl.DESCRIBE[name](items)}
    return (sum(o.attempted for o in outcomes), sum(o.failed for o in outcomes),
            metrics, details)


def _count_snapshot(tracer) -> dict:
    out = {f"calls:{k}": v for k, v in tracer.calls.items()}
    out.update({f"failed:{k}": v for k, v in tracer.failed.items()})
    out.update({f"counter:{k}": v for k, v in tracer.counters.items()})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("qslot", "energy"), default=None,
                        help="negative control: corrupt one output")
    args = parser.parse_args(argv)

    clock = SpeedClock()
    try:
        wl, _, import_s = clock.time(import_program)
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2

    def set_up():
        inputs = wl.make_inputs(args.workload, args.seed)
        wl.CERTIFY[args.workload](inputs.warmup)
        return inputs

    try:
        with injected(args.inject):
            setups = []
            for _ in range(SETUP_REPEATS):
                clock.recalibrate()
                inputs, raw_s, nominal_s = clock.time(set_up)
                setups.append((raw_s, nominal_s))
            setup_s = import_s + statistics.median(s for _, s in setups)
            if args.trace:
                attempted, failed, metrics, details = traced(
                    wl, args.workload, inputs, args.seconds)
            else:
                attempted, failed, metrics, details = end_to_end(
                    wl, args.workload, inputs, args.seconds, setup_s)
    except wl.GateError as exc:
        print(f"wrong output, run aborted: {exc}", file=sys.stderr)
        return 1

    details.update(workload=args.workload, trace=args.trace,
                   setup_runs_wall_s=[w for w, _ in setups], import_s=import_s,
                   environment=environment(args.seed))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
