"""End-to-end benchmark of ``normalforms normalize`` followed by ``verify``.

    python3 bench/run.py --workload ode-dense --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all

One client, one process at a time (a closed loop): each round trip
normalizes the seeded system document in a fresh ``python -m normalforms``
process and verifies that output in another.  Round trips repeat until
``--seconds`` have passed.  ``--trace 1`` instead runs the same two calls
in-process under the layer trace of ``tracer.py`` and reports per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, system_document  # noqa: E402

REFERENCE = BENCH / "reference.json"
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_ROUND_TRIP = 1
RUN_LIMIT_S = 170.0  # a run must end within 180 s
CALIBRATION_TERMS = 6000
CALIBRATION_NOMINAL_S = 0.04  # about the loop's time on a 2-core Xeon host, Python 3.11.7

END_TO_END = {
    "normalize_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float


@dataclass
class Attempt:
    normalize: Child
    verify: Child
    normalize_s: float  # wall times rescaled to the nominal machine speed
    verify_s: float
    digest: str
    problems: List[str] = field(default_factory=list)


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.perf_counter())


class Window:
    """The measuring window: the first repetition always runs; another one
    starts only if, at the median pace so far, it ends inside the window."""

    def __init__(self, seconds: float, deadline: Deadline):
        self.seconds, self.deadline = seconds, deadline
        self.start = self.last = time.perf_counter()
        self.laps: List[float] = []

    def lap(self):
        now = time.perf_counter()
        self.laps.append(now - self.last)
        self.last = now

    def another(self) -> bool:
        if not self.laps:
            return True
        end = self.last + statistics.median(self.laps)
        return end - self.start <= self.seconds and end < self.deadline.end


def calibration_s() -> float:
    """Wall time of a fixed loop of exact rational arithmetic in this
    process: the machine's current speed for the kind of work the program
    does."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, CALIBRATION_TERMS):
        total += Fraction(i % 7 + 1, i)
    return time.perf_counter() - start


class Speed:
    """Rescales wall times of children to the nominal machine speed.

    The calibration loop runs before the first timed child and right after
    every one.  A child's wall time is scaled by the nominal loop time over
    the mean of the two loops around it, so the minute-scale drift in speed
    of a shared host cancels out of the reported times."""

    def __init__(self):
        self.loops = [calibration_s()]

    def scaled(self, wall_s: float) -> float:
        self.loops.append(calibration_s())
        return wall_s * CALIBRATION_NOMINAL_S / statistics.mean(self.loops[-2:])


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: List[str], stdout: Path, timeout: float) -> Child:
    """Run one Python child to completion; wall time and peak RSS from wait4."""
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024)


def cli_args(w: Workload, verb: str, path: Path) -> List[str]:
    if verb == "normalize":
        return ["normalize", "--format", "json", "--order", str(w.order), "--input", str(path)]
    return ["verify", "--format", "json", "--input", str(path)]


# ---------------------------------------------------------------------------
# correctness of the outputs
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check_normalize(w: Workload, seed: int, code: int, text: bytes, ref: dict) -> List[str]:
    """Certificates, dimensions and, for the default seed, the stored digest."""
    if code != 0:
        return [f"normalize exited with {code}"]
    try:
        report = json.loads(text)["report"]
        certs = dict(report["certificates"])
    except (ValueError, KeyError, TypeError):
        return ["normalize output is not a report document"]
    problems = []
    for key in ("kernel_residual_zero", "conjugacy_residual_zero"):
        if certs.get(key) is not True:
            problems.append(f"certificate {key} is {certs.get(key)}")
    if certs.get("equivariance_zero") is not w.equivariance:
        problems.append(f"equivariance_zero is {certs.get('equivariance_zero')}, expected {w.equivariance}")
    if report.get("order") != w.order:
        problems.append(f"report order {report.get('order')} != {w.order}")
    if report.get("dimensions") != ref["dimensions"]:
        problems.append("per-degree dimensions differ from the independent reference")
    if seed == ref["seed"] and hashlib.sha256(text).hexdigest() != ref["normalize_sha256"]:
        problems.append("normalize output differs from the stored digest")
    return problems


def check_verify(code: int, text: bytes) -> List[str]:
    if code != 0:
        return [f"verify exited with {code}"]
    try:
        doc = json.loads(text)
    except ValueError:
        return ["verify output is not JSON"]
    problems = [] if doc.get("verified") is True else ["verified is not true"]
    problems += [f"check {k} failed" for k, v in sorted(doc.get("checks", {}).items()) if v is not True]
    return problems


# ---------------------------------------------------------------------------
# untraced runs: set-up and round trips in fresh processes
# ---------------------------------------------------------------------------


def setup_probe(work: Path, deadline: Deadline, speed: Speed) -> float:
    """Scaled wall time of a CLI call that does no computation."""
    out = work / "example.json"
    child = spawn(["-m", "normalforms", "examples", "brunovsky-quadratic"], out, deadline.left())
    scaled = speed.scaled(child.wall_s)
    try:
        ok = child.code == 0 and json.loads(out.read_bytes())["kind"] == "control"
    except (ValueError, KeyError):
        ok = False
    if not ok:
        raise RuntimeError(f"`normalforms examples` failed (exit {child.code}); see {out.with_suffix('.err')}")
    return scaled


def round_trip(
    w: Workload,
    seed: int,
    doc: Path,
    work: Path,
    ref: dict,
    deadline: Deadline,
    speed: Speed,
) -> Attempt:
    """``normalize`` then ``verify`` on its output, each in a fresh process."""
    report = work / "report.json"
    n = spawn(["-m", "normalforms", *cli_args(w, "normalize", doc)], report, deadline.left())
    n_s = speed.scaled(n.wall_s)
    text = report.read_bytes()
    problems = check_normalize(w, seed, n.code, text, ref)
    verdict = work / "verdict.json"
    v = spawn(["-m", "normalforms", *cli_args(w, "verify", report)], verdict, deadline.left())
    v_s = speed.scaled(v.wall_s)
    problems += check_verify(v.code, verdict.read_bytes())
    return Attempt(n, v, n_s, v_s, hashlib.sha256(text).hexdigest(), problems)


def median_report(values: List[float]) -> str:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return f"median of {len(values)} samples; quartiles {q[0]:.4f} .. {q[2]:.4f}"


def run_untraced(w: Workload, seed: int, seconds: float, work: Path, ref: dict) -> dict:
    deadline = Deadline(RUN_LIMIT_S)
    doc = work / "system.json"
    doc.write_text(json.dumps(system_document(w, seed)), encoding="utf-8")
    speed = Speed()
    setup_probe(work, deadline, speed)  # warm-up: fills the bytecode cache, as a user's first call does
    setup = [setup_probe(work, deadline, speed) for _ in range(SETUP_PROBES_FIRST)]

    attempts: List[Attempt] = []
    window = Window(seconds, deadline)
    while window.another():
        a = round_trip(w, seed, doc, work, ref, deadline, speed)
        if attempts and a.digest != attempts[0].digest:
            a.problems.append("normalize output changed between round trips")
        attempts.append(a)
        # spread the set-up samples over the window, like the round trips
        setup += [setup_probe(work, deadline, speed) for _ in range(SETUP_PROBES_PER_ROUND_TRIP)]
        window.lap()

    failed = [a for a in attempts if a.problems]
    for a in failed:
        print(f"round trip failed: {'; '.join(a.problems)}", file=sys.stderr)
    samples = {
        "normalize_s": [a.normalize_s for a in attempts],
        "verify_s": [a.verify_s for a in attempts],
        "setup_s": setup,
        "peak_rss_mb": [max(a.normalize.rss_mb, a.verify.rss_mb) for a in attempts],
    }
    for name, values in samples.items():
        print(f"{w.name} {name}: {statistics.median(values)} {END_TO_END[name]} ({median_report(values)})")
    for verb in ("normalize", "verify"):
        raw = statistics.median(getattr(a, verb).wall_s for a in attempts)
        print(f"{w.name} {verb} unscaled wall: {raw} s (median)")
    print(f"{w.name} calibration loop: {statistics.median(speed.loops)} s (median of {len(speed.loops)}; nominal {CALIBRATION_NOMINAL_S} s)")
    print(f"{w.name} failed_fraction: {len(failed)}/{len(attempts)} = {len(failed) / len(attempts)}")
    return {
        "correct": not failed,
        "attempted": len(attempts),
        "failed": len(failed),
        "metrics": {name: {"value": statistics.median(v), "unit": END_TO_END[name]} for name, v in samples.items()},
    }


# ---------------------------------------------------------------------------
# traced runs: the same calls in-process under the layer trace
# ---------------------------------------------------------------------------


def read(path: Path) -> bytes:
    """What a child wrote; nothing if it died before opening the file."""
    return path.read_bytes() if path.exists() else b""


def traced_call(w: Workload, verb: str, path: Path, work: Path, deadline: Deadline, run_id: Optional[str]):
    tag = f"{verb}-{'traced' if run_id else 'plain'}"
    out, result = work / f"{tag}.out", work / f"{tag}.result.json"
    args = [str(BENCH / "tracer.py"), "--out", str(out), "--result", str(result)]
    if run_id:
        args += ["--run-id", run_id]
    child = spawn([*args, "--", *cli_args(w, verb, path)], work / f"{tag}.log", deadline.left())
    try:
        doc = json.loads(result.read_bytes())
    except (OSError, ValueError):
        doc = None
    return child, out, doc


def trace_pass(w: Workload, seed: int, doc: Path, work: Path, ref: dict, deadline: Deadline, plain_first: bool):
    """One traced normalize, one traced verify, one untraced normalize.

    ``plain_first`` says whether the untraced normalize runs before the
    traced one; alternating it between passes keeps a drift in machine
    speed from reading as tracing overhead."""
    problems = []
    if plain_first:
        plain, _, plain_doc = traced_call(w, "normalize", doc, work, deadline, None)
    tn, report, tn_doc = traced_call(w, "normalize", doc, work, deadline, "normalize")
    if not plain_first:
        plain, _, plain_doc = traced_call(w, "normalize", doc, work, deadline, None)
    problems += check_normalize(w, seed, tn.code, read(report), ref)
    tv, verdict, tv_doc = traced_call(w, "verify", report, work, deadline, "verify")
    problems += check_verify(tv.code, read(verdict))
    if plain.code != 0 or plain_doc is None:
        problems.append(f"untraced in-process normalize exited with {plain.code}")
    metrics: Dict[str, float] = {}
    for run_id, rdoc in (("normalize", tn_doc), ("verify", tv_doc)):
        if rdoc is None or "spans" not in rdoc:
            problems.append(f"traced {run_id} left no spans")
            continue
        seen = {s[0] for s in rdoc["spans"]}
        missing = [n for n in tracer.expected_spans(w.kind, run_id) if n not in seen]
        if missing:
            problems.append(f"traced {run_id} recorded no span for {', '.join(missing)}")
        metrics.update({f"{run_id}.{k}": v for k, v in tracer.layer_metrics(rdoc).items()})
    if tn_doc and plain_doc:
        metrics[tracer.OVERHEAD_METRIC] = tn_doc["main_s"] - plain_doc["main_s"]
    return metrics, problems


def layer_units() -> Dict[str, str]:
    units = {f"{r}.{k}": u for r in tracer.RUN_IDS for k, u in tracer.LAYER_METRICS.items()}
    units[tracer.OVERHEAD_METRIC] = "s"
    return units


def changed_counts(first: Dict[str, float], again: Dict[str, float]) -> List[str]:
    """Counts, ratios and bit sizes must repeat exactly; times may not."""
    return [k for k, unit in layer_units().items() if unit != "s" and first.get(k) != again.get(k)]


def run_traced(w: Workload, seed: int, seconds: float, work: Path, ref: dict) -> dict:
    deadline = Deadline(RUN_LIMIT_S)
    doc = work / "system.json"
    doc.write_text(json.dumps(system_document(w, seed)), encoding="utf-8")
    units = layer_units()
    passes = []
    window = Window(seconds, deadline)
    # two passes at least: one to compare the counts of the other against,
    # and one of each order of the untraced and traced normalize
    while len(passes) < 2 or window.another():
        metrics, problems = trace_pass(w, seed, doc, work, ref, deadline, plain_first=len(passes) % 2 == 0)
        window.lap()
        if passes and not problems:
            changed = changed_counts(passes[0][0], metrics)
            if changed:
                problems.append(f"counts changed between traced passes: {', '.join(changed)}")
        passes.append((metrics, problems))

    failed = [p for _, p in passes if p]
    for p in failed:
        print(f"traced pass failed: {'; '.join(p)}", file=sys.stderr)
    good = [m for m, p in passes if not p] or [m for m, _ in passes]
    out = {}
    for name, unit in units.items():
        values = [m[name] for m in good if name in m]
        value = statistics.median(values) if values else 0.0
        out[name] = {"value": value, "unit": unit}
        print(f"{w.name} {name}: {value} {unit}")
    print(f"{w.name} failed_fraction: {len(failed)}/{len(passes)} = {len(failed) / len(passes)}")
    return {"correct": not failed, "attempted": len(passes), "failed": len(failed), "metrics": out}


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    ref = load_reference()[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = run_traced if trace else run_untraced
    return run(w, seed, seconds, work, ref)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "normalforms" / "cli.py").is_file():
        print(f"error: no normalforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
