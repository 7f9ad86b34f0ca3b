"""The delpezzo benchmark: three jobs, end to end and layer by layer.

    python3 perfbench/run.py --workload {density,surface,combinatorics} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from `src/`.
Every job runs in a fresh interpreter (perfbench/child.py), because the
library memoises with process-lifetime caches that every command-line run pays
again.  With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it runs the job once untraced and twice traced, and reports the
per-layer metrics (see BENCHMARK.json and perfbench/layers.json).  The last
line of standard output is one JSON object; the lines before it restate the
metrics for people.  Scratch files go to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

#: the workloads; `surface` is not in BENCHMARK.json (see NOTES.md) but runs
#: alike.  An untraced run starts job interpreters while the next one, at the
#: median wall time of those before it, still ends within `--seconds`, and
#: makes at least MIN_JOBS.  It reports the median job and the median set-up.
WORKLOADS = ("density", "surface", "combinatorics")
MIN_JOBS = 3
#: a set-up of a fraction of a second is noisy; set-up-only interpreters add
#: samples while they fit in this many seconds, up to MAX_SETUPS in all.  They
#: run between the jobs, in step with the run's clock, so that they span the
#: run and a slow minute of the host does not hold all of them
SETUP_ONLY_S = 4.0
MAX_SETUPS = 21
#: a run must end well inside three minutes
RUN_DEADLINE_S = 170.0

DERIVED_COUNTERS = ("experiment.place_yield", "experiment.skip_frac",
                    "surface.point_scans_per_form")


# -- statistics --------------------------------------------------------------


def nearest_rank(values: list[float], pct: float) -> float:
    """The smallest value with at least pct% of the values at or below it."""
    s = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(s)))
    return s[rank - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile that leaves at least ten
    values beyond it.  Below twenty values no percentile at or above the
    median does, and the tail is the maximum (percentile 100)."""
    n = len(values)
    if n < 20:
        return 100.0, max(values)
    s = sorted(values)
    return 100.0 * (n - 10) / n, s[n - 11]


# -- children ----------------------------------------------------------------


class ChildError(RuntimeError):
    pass


def run_child(workload: str, seed: str, mode: str, out: Path, tag: str, deadline: float) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", seed,
           "--mode", mode, "--out", str(out), "--tag", tag]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} job timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildError(f"{mode} job exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def write_inputs(workload: str, seed: str, out: Path) -> None:
    if workload == "surface":
        files = []
        for i, line in enumerate(inputs.surface_lines(seed)):
            path = out / f"surface-{i:02d}.txt"
            path.write_text(line + "\n")
            files.append(str(path))
        (out / "surfaces.json").write_text(json.dumps(files))
    elif workload == "combinatorics":
        (out / "probes.json").write_text(json.dumps(inputs.probe_permutations(seed)))


# -- metrics -----------------------------------------------------------------


def item_stats(items: list[float]) -> dict[str, tuple[float, str]]:
    """Per-item latency: the median and the tail, with the tail's percentile
    and the item count."""
    pct, tail_s = tail(items)
    return {"item_p50_s": (median(items), "s"), "item_tail_s": (tail_s, "s"),
            "item_tail_pct": (pct, "%"), "item_count": (len(items), "count")}


def end_to_end(jobs: list[dict], setups: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (median(setups), "s"),
        "job_s": (median([j["job_s"] for j in jobs]), "s"),
        "peak_rss_mb": (median([j["peak_rss_mb"] for j in jobs]), "MB"),
    }


def layer_value(name: str, child: dict) -> float:
    """One per-layer metric from one traced child's summary.  Time is given
    as a share of the traced interpreter's set-up and job, so a layer a
    workload never enters reads 0 and no time is constant from run to run."""
    layers = child["layers"]
    calls = lambda span: layers.get(span, {}).get("calls", 0)  # noqa: E731
    if name == "experiment.place_yield":
        tried = calls("experiment.specialize")
        return child["places_used"] / tried if tried else 0.0
    if name == "experiment.skip_frac":
        return child.get("skip_frac", 0.0)
    if name == "surface.point_scans_per_form":
        return child["point_scans_per_form"]
    span, stat = name.rsplit(".", 1)
    entry = layers.get(span, {"calls": 0, "self_s": 0.0})
    if stat == "calls":
        return entry["calls"]
    if stat == "self_share":
        return entry["self_s"] / (child["setup_s"] + child["job_s"])
    if stat == "points_per_s":
        return child["points"] / entry["self_s"] if entry["self_s"] else 0.0
    raise KeyError(name)


def span_table(traced: list[dict]) -> list[str]:
    """For people: calls and self time in seconds of every span entered, and
    the per-sample latency of the density experiment."""
    names = sorted({n for t in traced for n in t["layers"]},
                   key=lambda n: -median([t["layers"].get(n, {"self_s": 0.0})["self_s"]
                                          for t in traced]))
    lines = []
    for n in names:
        self_s = median([t["layers"].get(n, {"self_s": 0.0})["self_s"] for t in traced])
        lines.append(f"{n + '.calls':52s} {traced[0]['layers'][n]['calls']:14d} count")
        lines.append(f"{n + '.self_s':52s} {self_s:14.6g} s")
    durations = traced[0]["sample_durations"]
    if durations:
        for pct in (50, 90):
            value = median([nearest_rank(t["sample_durations"], pct) for t in traced])
            lines.append(f"{f'experiment.analyze_sample.p{pct}_s':52s} {value:14.6g} s")
    return lines


def is_counter(name: str) -> bool:
    return name.endswith(".calls") or name in DERIVED_COUNTERS


def per_layer(spec: list[dict], plain: dict, traced: list[dict], problems: list[str]) -> dict:
    """Layer metrics from two traced jobs; the item latencies and the tracing
    overhead also use the untraced job `plain` of the same run."""
    items = item_stats(plain["items"])
    metrics = {}
    for entry in spec:
        name = entry["name"]
        if name in items:
            value = items[name][0]
        elif name == "trace_overhead":
            value = median([t["job_s"] for t in traced]) / plain["job_s"]
        else:
            values = [layer_value(name, t) for t in traced]
            if is_counter(name) and len(set(values)) != 1:
                problems.append(f"counter {name} differs between traced runs: {values}")
            value = median(values)
        metrics[name] = (value, entry["unit"])
    return metrics


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "delpezzo" / "__init__.py").is_file():
        print(f"perfbench: no delpezzo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + RUN_DEADLINE_S
    out = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    write_inputs(args.workload, args.seed, out)

    def child(mode: str, tag: str) -> dict:
        return run_child(args.workload, args.seed, mode, out, tag, deadline)

    try:
        if args.trace == 0:
            start = time.monotonic()
            jobs, walls, setups, spent = [], [], [], 0.0
            while len(jobs) < MIN_JOBS or (
                    time.monotonic() - start + median(walls) <= args.seconds):
                t = time.monotonic()
                jobs.append(child("job", f"job{len(jobs)}"))
                walls.append(time.monotonic() - t)
                setups.append(jobs[-1]["setup_s"])
                share = SETUP_ONLY_S * min(1.0, (time.monotonic() - start) / args.seconds)
                while len(setups) < MAX_SETUPS and spent + median(setups) <= share:
                    t = time.monotonic()
                    setups.append(child("setup", f"setup{len(setups)}")["setup_s"])
                    spent += time.monotonic() - t
            metrics = end_to_end(jobs, setups)
            shown = {**metrics, **item_stats([x for j in jobs for x in j["items"]])}
        else:
            plain = child("job", "plain")
            traced = [child("traced", f"traced{i}") for i in range(2)]
            jobs = [plain, *traced]
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    # every job of a run saw the same inputs, so their reports must agree
    # byte for byte (in a traced run this proves the tracing harmless), and
    # each interpreter built the class table afresh, so its hash must agree
    problems = [f for j in jobs for f in j["failures"]]
    attempted = sum(j["attempted"] for j in jobs) + 2
    shas = [j["report_sha256"] for j in jobs]
    if any(s != shas[0] for s in shas):
        problems.append("reports differ between the jobs of this run")
    if len({j["table_hash"] for j in jobs}) != 1:
        problems.append("class-table hashes differ between fresh interpreters")
    if args.trace == 1:
        metrics = per_layer(spec["per_layer"], plain, traced, problems)
        attempted += sum(1 for m in spec["per_layer"] if is_counter(m["name"]))
        shown = metrics
    failed = len(problems)

    for name, (value, unit) in shown.items():
        print(f"{args.workload:14s} {name:52s} {value:14.6g} {unit}")
    if args.trace == 1:
        for line in span_table(traced):
            print(f"{args.workload:14s} {line}")
    print(f"{args.workload:14s} fail_frac {failed}/{attempted} = {failed / attempted:.4g}")
    print(f"{args.workload:14s} report_sha256 {' '.join(shas[0])}")
    print(f"{args.workload:14s} job_s of each job: {[round(j['job_s'], 4) for j in jobs]}")
    if args.trace == 0:
        print(f"{args.workload:14s} setup_s of each interpreter: {[round(x, 4) for x in setups]}")
    for p in problems:
        print(f"FAILED: {p}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
