"""Repeat the benchmark over several seeds and write one BENCH trajectory file.

    python3 bench/trajectory.py --label seed --seeds 1-10 --out bench/BENCH_seed.json

Each (workload, seed) is one run of ``run.py`` in its own process, exactly
as a single benchmark run is made.  For every end-to-end metric the file
holds the ten values, their median and quartiles, and the spread
(interquartile distance over the median) to compare against the bound in
BENCHMARK.json.  One traced run per workload, at the default seed, gives
the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# which end-to-end metric each layer metric should move, and on which workload
LAYER_MAP = {
    "ratmat": "normalize_s and verify_s on ode-dense; flat on ode-jordan",
    "homological": "normalize_s on ode-dense and ode-jordan; peak_rss_mb if operators get cached",
    "polyalg": "normalize_s and verify_s on ode-jordan and control-brunovsky",
    "innerprod": "normalize_s on control-brunovsky",
    "control": "normalize_s and verify_s on control-brunovsky only",
    "ode": "normalize_s on ode-jordan",
    "cert": "normalize_s and verify_s on ode-jordan and control-brunovsky",
    "cli": "small everywhere; kept so a serialization regression shows",
    "trace": "none: the cost of tracing itself",
}


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q[0], "q3": q[2], "spread": (q[2] - q[0]) / med}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="name of this point of the trajectory, e.g. a commit")
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    doc = {
        "label": args.label,
        "claim": None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    for name in WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(one_run(name, seed, spec["run_seconds"], 0))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
            print(f"{name} seed {seed}: attempted {runs[-1]['attempted']} failed {runs[-1]['failed']} {values}", flush=True)
        entry = {
            "why": WORKLOADS[name].why,
            "generator": WORKLOADS[name].params(),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        for metric, bound in bounds.items():
            s = summary([r["metrics"][metric]["value"] for r in runs])
            s["bound"] = bound
            entry["end_to_end"][metric] = s
            print(f"{name} {metric}: median {s['median']:.4f} spread {s['spread']:.4f} (bound {bound})", flush=True)
        traced = one_run(name, DEFAULT_SEED, spec["run_seconds"], 1)
        entry["per_layer"] = {
            "seed": DEFAULT_SEED,
            "correct": traced["correct"],
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        doc["workloads"][name] = entry
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
