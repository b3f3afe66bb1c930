"""Run every workload over several seeds and summarise the spread.

    python3 bench/baseline.py --seeds 10 --out bench/baselines/<commit>.json

Each seed is a fresh `run.py` process with the `run_seconds` of
BENCHMARK.json.  One traced run (seed 1) per workload follows.  For each
end-to-end metric the summary gives the median, the quartiles from
`statistics.quantiles(values, n=4)` and the spread (q3 - q1) / median,
which is what the metric's bound in BENCHMARK.json is compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT)
    details, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "details": details}


def summarise(runs: list, spec: dict) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "bound": metric["bound"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(name, seed, spec["run_seconds"], 0)
                for seed in range(1, args.seeds + 1)]
        summary = summarise(runs, spec)
        traced = run_once(name, 1, spec["run_seconds"], 1)
        report["workloads"][name] = {"summary": summary, "runs": runs, "traced": traced}
        report["environment"] = runs[0]["details"]["environment"]
        for metric, s in summary.items():
            print(f"{name:16s} {metric:18s} median {s['median']:.6g}  "
                  f"spread {s['spread']:.3f}  bound {s['bound']}", file=sys.stderr)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
