"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import importlib
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


# -- percentile rule ---------------------------------------------------------


@pytest.mark.parametrize("n", [20, 21, 30, 57, 100, 1000])
def test_tail_leaves_exactly_ten_values_beyond(n):
    values = random.Random(n).sample(range(10 * n), n)
    pct, value = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * (n - 10) / n)
    assert pct >= 50


def test_tail_of_few_values_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert run.tail(list(range(19))) == (100.0, 18)


def test_tail_percentiles_of_common_counts():
    assert run.tail(list(range(100)))[0] == 90.0
    assert run.tail(list(range(40)))[0] == 75.0
    assert run.tail(list(range(30))) == (pytest.approx(66.667, abs=1e-3), 19)


def test_item_stats_record_percentile_and_count():
    stats = run.item_stats([float(x) for x in range(40)])
    assert stats["item_p50_s"] == (19.5, "s")
    assert stats["item_tail_s"] == (29.0, "s")
    assert stats["item_tail_pct"] == (75.0, "%")
    assert stats["item_count"] == (40, "count")


def test_median_and_nearest_rank():
    assert run.median([3, 1, 2]) == 2
    assert run.median([4, 1, 2, 3]) == 2.5
    assert run.nearest_rank(list(range(1, 11)), 90) == 9
    assert run.nearest_rank(list(range(1, 11)), 50) == 5


# -- self time of nested spans ------------------------------------------------


def _spans(tracer: Tracer, rows):
    for name, parent, start, end in rows:
        tracer.name_id.append(tracer._intern(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    _spans(t, [("outer", -1, 0.0, 10.0),
               ("mid", 0, 1.0, 4.0),
               ("leaf", 1, 2.0, 3.0),
               ("mid", 0, 5.0, 9.0)])
    assert t.self_times() == [3.0, 2.0, 1.0, 4.0]
    summary = t.summary()
    assert summary["mid"]["calls"] == 2
    assert summary["mid"]["self_s"] == 6.0
    assert sum(s["self_s"] for s in summary.values()) == 10.0


def test_wrapped_calls_nest_and_survive_exceptions():
    t = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    leaf_w = t.wrap("leaf", leaf)

    def outer():
        try:
            leaf_w(-1)
        except ValueError:
            pass
        return leaf_w(2) + leaf_w(3)

    assert t.wrap("outer", outer)() == 5
    assert [t.names[i] for i in t.name_id] == ["outer", "leaf", "leaf", "leaf"]
    assert list(t.parent) == [-1, 0, 0, 0]
    own = t.self_times()
    dur = t.durations()
    assert own[0] == pytest.approx(dur[0] - sum(dur[1:]))
    assert all(e >= s for s, e in zip(t.start, t.end))


# -- patching every binding and restoring it ----------------------------------


def _bindings(obj):
    """(module name, attribute) of every delpezzo namespace binding obj."""
    return sorted((n, a) for n, m in list(sys.modules.items())
                  if n == "delpezzo" or n.startswith("delpezzo.")
                  for a, v in vars(m).items() if v is obj)


def test_install_patches_every_binding_and_restore_undoes_it():
    for layer in LAYERS:
        importlib.import_module(f"delpezzo.{layer}")
    from delpezzo import cli, experiment, gf, permgroup, surface

    originals = {
        "frobenius_class": surface.frobenius_class,
        "smoothness_certificate": surface.smoothness_certificate,
        "count_points": surface.count_points,
        "field": gf.field,
    }
    where = {k: _bindings(v) for k, v in originals.items()}
    assert {m for m, _ in where["frobenius_class"]} >= {
        "delpezzo.surface", "delpezzo.experiment", "delpezzo.cli"}
    assert {m for m, _ in where["smoothness_certificate"]} >= {
        "delpezzo.surface", "delpezzo.experiment", "delpezzo.cli"}
    init = permgroup.PermutationGroup.__dict__["__init__"]

    tracer = Tracer()
    tracer.install()
    try:
        for name, original in originals.items():
            assert _bindings(original) == [], name
            wrappers = {id(getattr(sys.modules[m], a)) for m, a in where[name]}
            assert len(wrappers) == 1, name
            wrapper = getattr(sys.modules[where[name][0][0]], where[name][0][1])
            assert wrapper.__perfbench_original__ is original
        assert experiment.frobenius_class is cli.frobenius_class is surface.frobenius_class
        assert permgroup.PermutationGroup.__dict__["__init__"] is not init

        before = originals["field"].cache_info().hits
        experiment.field(2, 1)
        cli.field(2, 1)
        assert originals["field"].cache_info().hits >= before + 1
        assert tracer.summary()["gf.field"]["calls"] == 2
    finally:
        tracer.restore()

    for name, original in originals.items():
        assert _bindings(original) == where[name], name
    assert permgroup.PermutationGroup.__dict__["__init__"] is init
    assert not any(hasattr(v, "__perfbench_original__")
                   for n, m in sys.modules.items() if n.startswith("delpezzo")
                   for v in vars(m).values())


# -- inputs -------------------------------------------------------------------


def _evaluate(coeffs, point, p):
    total = 0
    for c, e in zip(coeffs, inputs.MONOMIALS):
        term = c
        for x, k in zip(point, e):
            term *= x**k
        total += term
    return total % p


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_change_of_coordinates_is_substitution(p):
    rng = random.Random(p)
    coeffs = [rng.randrange(p) for _ in range(20)]
    a = inputs.random_invertible(p, rng)
    moved = inputs.transform_encodings(coeffs, a, p, 1)
    for _ in range(20):
        x = [rng.randrange(p) for _ in range(4)]
        ax = [sum(a[i][j] * x[j] for j in range(4)) % p for i in range(4)]
        assert _evaluate(moved, x, p) == _evaluate(coeffs, ax, p)


def test_extension_field_digits_transform_independently():
    rng = random.Random(1)
    a = inputs.random_invertible(3, rng)
    low = [rng.randrange(3) for _ in range(20)]
    high = [rng.randrange(3) for _ in range(20)]
    both = inputs.transform_encodings([lo + 3 * hi for lo, hi in zip(low, high)], a, 3, 2)
    expect = [lo + 3 * hi for lo, hi in zip(inputs.transform_encodings(low, a, 3, 1),
                                           inputs.transform_encodings(high, a, 3, 1))]
    assert both == expect


def test_inputs_depend_on_the_seed_only():
    assert inputs.surface_lines(7) == inputs.surface_lines(7)
    assert inputs.surface_lines(7) != inputs.surface_lines(8)
    assert len(inputs.surface_lines(7)) == (sum(c for _, _, c in inputs.SURFACE_POOL)
                                            + len(inputs.FROZEN_SURFACES))
    assert inputs.probe_permutations(7) == inputs.probe_permutations(7)
    for perm in inputs.probe_permutations(7):
        assert sorted(perm) == list(range(inputs.PROBE_VERTICES))


# -- the metric catalogue -------------------------------------------------------


def test_every_per_layer_metric_has_a_prediction_and_a_value():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(layers)
    workloads = set(run.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    for name, pred in layers.items():
        for pair in pred["moves"] + pred["no_change"]:
            metric, workload = pair.split("@")
            assert metric in e2e and workload in workloads, (name, pair)
    child = {"layers": {}, "places_used": 0, "points": 0, "point_scans_per_form": 0.0,
             "setup_s": 1.0, "job_s": 2.0}
    from_items = set(run.item_stats([1.0]))
    for name in names:
        if name != "trace_overhead" and name not in from_items:
            assert run.layer_value(name, child) == 0
    assert from_items <= set(names)


def test_self_share_divides_by_the_traced_interval():
    child = {"layers": {"gf.field": {"calls": 3, "self_s": 0.75}}, "setup_s": 1.0, "job_s": 2.0,
             "points": 0}
    assert run.layer_value("gf.field.self_share", child) == 0.25
    assert run.layer_value("gf.field.calls", child) == 3
    assert run.layer_value("gf.embed.self_share", child) == 0


def test_benchmark_file_follows_its_contract():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
