"""One benchmark job in a fresh interpreter; prints one JSON object.

    python3 perfbench/child.py --workload W --seed S --mode {setup,job,traced} --out DIR --tag T

The clock starts before `import delpezzo`, because every command-line user
pays the import and the process-lifetime caches again on each run.  `setup_s`
ends when the job is ready to start; `job_s` is the job after that.  Outputs
are checked after the clock stops.  In `traced` mode spans are recorded from
just after the import to the end of the job (see tracer.py).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import inputs  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


class Checks:
    """Checked outputs: every check counts once in `attempted`."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _wrap(module, name: str, make):
    """Replace module.name by make(original); return an undo callback."""
    original = getattr(module, name)
    setattr(module, name, make(original))
    return lambda: setattr(module, name, original)


# -- density ---------------------------------------------------------------


def setup_density(args):
    from delpezzo.certify import build_class_table

    return {"table": build_class_table()}


def job_density(state, args, items):
    from delpezzo import experiment
    from delpezzo.gf import UniPoly

    def transformed(sample_form):
        # the benchmark's input: each sampled form in seeded coordinates
        def sample(base, degree_bound, rng):
            form = sample_form(base, degree_bound, rng)
            a = inputs.density_matrix(args.seed, rng.stream)
            vecs = [[base.to_int(x) for x in c.coeffs] for c in form.coeffs]
            moved = inputs.transform_vectors(vecs, inputs.substitution_matrix(a, base.p), base.p)
            return experiment.FunctionFieldCubic(
                base, tuple(UniPoly.from_ints(base, v) for v in moved))
        return sample

    def timed(analyze_sample):
        def analyze(*a, **kw):
            t = time.perf_counter()
            out = analyze_sample(*a, **kw)
            items.append(time.perf_counter() - t)
            return out
        return analyze

    undo = [_wrap(experiment, "sample_form", transformed),
            _wrap(experiment, "analyze_sample", timed)]
    try:
        config = experiment.ExperimentConfig(
            q=2,
            degree_bounds=inputs.DENSITY_DEGREES,
            samples_per_degree=inputs.DENSITY_SAMPLES,
            seed=inputs.DENSITY_SEED,
        )
        report = experiment.run_density(config)
    finally:
        for u in undo:
            u()
    path = os.path.join(args.out, f"density-{args.tag}.json")
    with open(path, "w") as fh:
        fh.write(experiment.report_to_json(report))
    return {"report": report, "path": path}


def check_density(state, outcome, checks, args):
    report = outcome["report"]
    rows = report["rows"]
    checks.check([r["degree_bound"] for r in rows] == list(inputs.DENSITY_DEGREES),
                 "density rows cover the degree bounds")
    for r in rows:
        checks.check(r["samples"] == inputs.DENSITY_SAMPLES
                     and r["skipped"] + r["usable"] == r["samples"],
                     f"D={r['degree_bound']}: skipped + usable = samples")
    table_hash = state["table"].content_hash
    checks.check(report["table_hash"] == table_hash, "density table_hash equals the table built")
    skipped = sum(r["skipped"] for r in rows)
    samples = sum(r["samples"] for r in rows)
    return {"report_sha256": [sha256_file(outcome["path"])],
            "table_hash": table_hash, "skip_frac": skipped / samples}


# -- surface ---------------------------------------------------------------


def surface_files(out: str) -> list[str]:
    with open(os.path.join(out, "surfaces.json")) as fh:
        return json.load(fh)


def setup_surface(args):
    from delpezzo.certify import build_class_table

    return {"table": build_class_table(), "files": surface_files(args.out)}


def job_surface(state, args, items):
    from delpezzo import cli

    codes = []
    for path in state["files"]:
        t = time.perf_counter()
        codes.append(cli.main(["surface", path, "--budget-points",
                               str(inputs.SURFACE_POINT_BUDGET),
                               "--budget-lines", str(inputs.SURFACE_LINE_BUDGET),
                               "--json", f"{path}.{args.tag}.json"]))
        items.append(time.perf_counter() - t)
    return {"codes": codes}


def expected_depth(q: int) -> int:
    """Levels m <= 6 the `surface` command counts under the point budget."""
    return sum(1 for m in range(1, 7) if q ** (3 * m) <= inputs.SURFACE_POINT_BUDGET)


def check_surface(state, outcome, checks, args):
    table = state["table"]
    shas = []
    lefschetz = 0
    for path, code in zip(state["files"], outcome["codes"]):
        checks.check(code == 0, f"{path}: exit code 0")
        out = f"{path}.{args.tag}.json"
        shas.append(sha256_file(out))
        with open(out) as fh:
            (report,) = json.load(fh)["surfaces"]
        q = report["field"]["p"] ** report["field"]["k"]
        status = report["smoothness"]["status"]
        traces = report.get("traces")
        checks.check(report["table_hash"] == table.content_hash, f"{path}: table hash")
        if traces is None:
            checks.check(status == "not_smooth" and "trace_error" in report,
                         f"{path}: traces missing on a surface not proven singular")
            continue
        checks.check(len(traces) == expected_depth(q) and all(abs(t) <= 7 for t in traces),
                     f"{path}: Weil shape of the traces")
        frob = report.get("frobenius")
        if status == "smooth_certified" and frob and len(frob["class_ids"]) == 1:
            lefschetz += 1
            row = table.rows[frob["class_ids"][0]]
            for m, t in enumerate(traces, 1):
                qm = q**m
                count = qm * qm + qm * t + 1
                checks.check(count == qm * qm + qm * (1 + row.lattice_traces[m - 1]) + 1,
                             f"{path}: Lefschetz identity at m={m}")
    expected = len(inputs.FROZEN_SURFACES)
    checks.check(lefschetz >= expected,
                 f"{lefschetz} smooth-certified pinned surfaces, expected at least {expected}")
    return {"report_sha256": shas, "table_hash": table.content_hash}


# -- combinatorics ---------------------------------------------------------


def setup_combinatorics(args):
    with open(os.path.join(args.out, "probes.json")) as fh:
        return {"probes": json.load(fh)}


def job_combinatorics(state, args, items):
    import numpy as np

    from delpezzo import cli, incidence
    from delpezzo.lattice import DegreeContext

    verify_path = os.path.join(args.out, f"verify-{args.tag}.json")
    tables_path = os.path.join(args.out, f"tables-{args.tag}.json")
    codes = [cli.main(["verify", "--all", "--json", verify_path]),
             cli.main(["tables", "--json", tables_path])]
    graph = incidence.incidence_graph(DegreeContext(1))
    found = []
    for perm in state["probes"]:
        relabeled = graph.labels[np.ix_(perm, perm)]
        t = time.perf_counter()
        iso = incidence.find_isomorphism(graph, relabeled)
        items.append(time.perf_counter() - t)
        found.append((iso, relabeled))
    return {"codes": codes, "verify": verify_path, "tables": tables_path,
            "labels": graph.labels, "found": found}


def check_combinatorics(state, outcome, checks, args):
    import numpy as np

    checks.check(outcome["codes"] == [0, 0], "verify and tables exit 0")
    with open(outcome["verify"]) as fh:
        checks.check(json.load(fh).get("all_pass") is True, "verify --all: all_pass")
    with open(outcome["tables"]) as fh:
        table_hash = json.load(fh)["content_hash"]
    la = outcome["labels"]
    for n, (iso, lb) in enumerate(outcome["found"]):
        ok = iso is not None and sorted(iso) == list(range(len(la)))
        if ok:
            g = np.asarray(iso)
            ok = bool(np.array_equal(lb[np.ix_(g, g)], la))
        checks.check(ok, f"probe {n}: a label-preserving bijection")
    return {"report_sha256": [sha256_file(outcome["verify"]), sha256_file(outcome["tables"])],
            "table_hash": table_hash}


WORKLOADS = {
    "density": (setup_density, job_density, check_density),
    "surface": (setup_surface, job_surface, check_surface),
    "combinatorics": (setup_combinatorics, job_combinatorics, check_combinatorics),
}


# -- tracing counters ------------------------------------------------------


class Counters:
    """Work counts observed at the traced layer boundaries."""

    def __init__(self, tracer: Tracer):
        self.places_used = 0
        self.points = 0
        self.scans: list[tuple[object, int]] = []
        from delpezzo import surface

        self._singular_sig = inspect.signature(surface.singular_point)
        tracer.observers["experiment.analyze_sample"] = self._sample
        tracer.observers["surface.count_points"] = self._count
        tracer.observers["surface.singular_point"] = self._singular

    def _sample(self, args, kwargs, outcome):
        self.places_used += len(outcome.used_places)

    def _count(self, args, kwargs, result):
        form = args[0] if args else kwargs["form"]
        q = form.field.order
        self.points += q**3 + q**2 + q + 1
        self.scans.append((form, 1))

    def _singular(self, args, kwargs, hit):
        """Record the extension levels the search scanned: up to the hit, or
        every level the budget allowed."""
        bound = self._singular_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        form, budget = bound.arguments["form"], bound.arguments["budget"]
        q = form.field.order
        if hit is not None:
            levels = hit[0]
        else:
            levels = 0
            while levels < bound.arguments["max_extension"] and q ** (3 * (levels + 1)) <= budget:
                levels += 1
        self.scans.extend((form, m) for m in range(1, levels + 1))

    def scans_per_form(self) -> float:
        """Point scans per distinct scanned (form, extension) pair."""
        if not self.scans:
            return 0.0
        distinct = {form.extend(m) for form, m in self.scans}
        return len(self.scans) / len(distinct)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--mode", choices=("setup", "job", "traced"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--tag", default="0")
    args = parser.parse_args(argv)

    for layer in LAYERS:
        importlib.import_module(f"delpezzo.{layer}")
    tracer = counters = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
        counters = Counters(tracer)
    setup, job, check = WORKLOADS[args.workload]
    try:
        state = setup(args)
        result = {"setup_s": time.perf_counter() - T0}
        if args.mode == "setup":
            sys.stdout.write(json.dumps(result) + "\n")
            return 0
        items: list[float] = []
        t = time.perf_counter()
        outcome = job(state, args, items)
        result["job_s"] = time.perf_counter() - t
        result["items"] = items
        # the high-water mark of the job itself, before the checks allocate
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer is not None:
            tracer.restore()
    checks = Checks()
    result.update(check(state, outcome, checks, args))
    result["attempted"] = checks.attempted
    result["failures"] = checks.failures
    if tracer is not None:
        tracer.write_spans(os.path.join(args.out, f"spans-{args.tag}.tsv"))
        summary = tracer.summary()
        result["layers"] = {name: {"calls": s["calls"], "self_s": s["self_s"]}
                            for name, s in summary.items()}
        result["sample_durations"] = summary.get(
            "experiment.analyze_sample", {"durations": []})["durations"]
        result["places_used"] = counters.places_used
        result["points"] = counters.points
        result["point_scans_per_form"] = counters.scans_per_form()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
