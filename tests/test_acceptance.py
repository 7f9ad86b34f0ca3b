"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every expected value is pinned here, nothing is deferred.
"""

import hashlib
import json
import time

from delpezzo.certify import build_class_table, oracle_cross_validation
from delpezzo.experiment import (
    CounterRng,
    ExperimentConfig,
    report_to_json,
    run_density,
)
from delpezzo.gf import field
from delpezzo.incidence import (
    double_sixes,
    incidence_graph,
    orbit_of_structures,
    triple_nines,
    tritangent_triangles,
    weyl_image,
)
from delpezzo.lattice import DegreeContext, exceptional_classes
from delpezzo.surface import (
    CubicForm,
    MONOMIALS,
    NOT_SMOOTH,
    SMOOTH_CERTIFIED,
    count_points,
    frobenius_class,
    lines_on_surface,
    smoothness_certificate,
    splitting_degree,
)
from delpezzo.verify import stabilizer_chain_check, verify_table1

EXPECTED_COUNTS = (240, 56, 27, 16, 10, 6, 3)
EXPECTED_ORDERS = (696729600, 2903040, 51840, 1920, 120, 12, 2)

#: regression values frozen from the first full run of the committed seed
DENSITY_SEED = "acceptance-2024"
DENSITY_MIN_AT_TOP_DEGREE = 0.9


def _announce(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_table_reproduction():
    t0 = time.time()
    assert 51840 == 2**7 * 3**4 * 5
    for d, n, order in zip(range(1, 8), EXPECTED_COUNTS, EXPECTED_ORDERS):
        ctx = DegreeContext(d)
        assert len(exceptional_classes(ctx)) == n
        assert weyl_image(ctx).order == order
    # the full label-preserving groups, exact, for every degree including 1
    checks = verify_table1()
    assert all(c.ok for c in checks), [c.to_json() for c in checks if not c.ok]
    elapsed = time.time() - t0
    assert elapsed < 600
    _announce(1, f"n_d and |Aut| match for d=1..7, 51840 = 2^7*3^4*5 ({elapsed:.1f}s)")


def test_criterion_2_transitivity():
    for d in range(1, 7):
        assert weyl_image(DegreeContext(d)).is_transitive()
    _announce(2, "Weyl image transitive on the class set for d=1..6")


def test_criterion_3_stabilizer_chain():
    for d in range(1, 7):
        checks = stabilizer_chain_check(d)
        assert all(c.ok for c in checks), (d, [c.to_json() for c in checks if not c.ok])
    _announce(3, "point stabilizers have order |Aut|/n_d and transport onto Aut one degree up")


def test_criterion_4_schlafli_statistics():
    graph = incidence_graph(DegreeContext(3))
    assert len(tritangent_triangles(graph)) == 45
    assert len(double_sixes(graph)) == 36
    assert len(triple_nines(graph)) == 40
    per_line = [0] * 27
    for t in tritangent_triangles(graph):
        for x in t:
            per_line[x] += 1
    assert set(per_line) == {5}
    assert {int((graph.labels[i] == 1).sum()) for i in range(27)} == {10}
    w = weyl_image(DegreeContext(3))
    assert len(set(orbit_of_structures(w, double_sixes(graph)))) == 1
    assert len(set(orbit_of_structures(w, triple_nines(graph)))) == 1
    _announce(4, "45 triangles (5 per line), 36 double sixes, 40 triple nines, both orbits transitive")


def test_criterion_5_explicit_surfaces():
    t0 = time.time()
    f2, f3, f7 = field(2), field(3), field(7)
    assert len(lines_on_surface(CubicForm.fermat(f7))) == 27
    assert len(lines_on_surface(CubicForm.fermat(f2))) == 3
    table = build_class_table()
    ev = frobenius_class(CubicForm.fermat(f2), table, point_budget=10**6, line_budget=10**7)
    assert splitting_degree(ev, table) == 2
    cone = CubicForm.from_ints(
        f7, [1 if e in ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0)) else 0 for e in MONOMIALS]
    )
    assert smoothness_certificate(cone).status == NOT_SMOOTH
    assert smoothness_certificate(CubicForm.fermat(f3)).status == NOT_SMOOTH
    elapsed = time.time() - t0
    assert elapsed < 60
    _announce(5, f"Fermat line counts/splitting and the two non-smooth verdicts ({elapsed:.1f}s)")


def _certified_pool(q: int, want: int, screen_budget: int, line_budget: int):
    """Deterministic pool search for smooth-certified surfaces with pinned
    classes (streams "lefschetz-pool-q{q}"); FROZEN_POOL below records its
    output so the suite re-certifies without re-searching."""
    table = build_class_table()
    fs = field(q)
    out = []
    rng = CounterRng(f"lefschetz-pool-q{q}")
    attempts = 0
    while len(out) < want and attempts < 300:
        attempts += 1
        coeffs = [rng.below(q) for _ in range(20)]
        if all(c == 0 for c in coeffs):
            continue
        form = CubicForm.from_ints(fs, coeffs)
        if smoothness_certificate(form).status != SMOOTH_CERTIFIED:
            continue
        ev = frobenius_class(
            form,
            table,
            point_budget=screen_budget,
            line_budget=line_budget,
        )
        if ev.pinned:
            out.append((form, table.rows[ev.class_ids[0]]))
    return out


# output of _certified_pool for q = 2 (12), 5 (4), 7 (4)
FROZEN_POOL = [
    (2, [0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0]),
    (2, [1, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0, 1, 0, 1, 0]),
    (2, [1, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1]),
    (2, [1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 0]),
    (2, [1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0]),
    (2, [1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1]),
    (2, [1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0]),
    (2, [1, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0]),
    (2, [1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0]),
    (2, [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1, 0]),
    (2, [1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 0, 1, 0]),
    (2, [0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1, 1]),
    (5, [4, 0, 0, 0, 4, 0, 4, 2, 2, 4, 0, 1, 0, 2, 2, 2, 1, 4, 0, 2]),
    (5, [4, 4, 0, 3, 4, 3, 1, 1, 2, 0, 4, 2, 0, 0, 1, 0, 2, 4, 4, 0]),
    (5, [2, 0, 3, 0, 3, 4, 2, 2, 1, 0, 0, 3, 2, 2, 3, 3, 2, 0, 1, 4]),
    (5, [3, 1, 0, 3, 1, 0, 0, 0, 0, 3, 1, 3, 3, 3, 3, 3, 0, 2, 4, 3]),
    (7, [4, 4, 1, 1, 6, 0, 3, 5, 0, 3, 6, 0, 1, 5, 3, 2, 4, 6, 2, 6]),
    (7, [3, 5, 2, 5, 6, 5, 3, 2, 5, 2, 2, 3, 2, 2, 0, 4, 2, 1, 6, 4]),
    (7, [0, 5, 5, 4, 1, 0, 0, 4, 5, 6, 1, 1, 5, 6, 2, 2, 2, 4, 1, 1]),
    (7, [4, 2, 4, 6, 6, 6, 2, 5, 0, 6, 3, 6, 4, 6, 4, 4, 5, 1, 3, 2]),
]


def test_criterion_6_lefschetz_consistency():
    count_budgets = {2: 300_000, 5: 2_100_000, 7: 150_000}
    table = build_class_table()
    assert len(FROZEN_POOL) >= 20
    assert {q for q, _ in FROZEN_POOL} == {2, 5, 7}
    checked = 0
    for q, coeffs in FROZEN_POOL:
        form = CubicForm.from_ints(field(q), coeffs)
        assert smoothness_certificate(form).status == SMOOTH_CERTIFIED, (q, coeffs)
        ev = frobenius_class(
            form,
            table,
            point_budget=20_000,
            line_budget=2 * 10**11,
        )
        assert ev.pinned, (q, coeffs)
        row = table.rows[ev.class_ids[0]]
        point_budget = count_budgets[q]
        m = 1
        while q ** (3 * m) <= point_budget:
            count = count_points(form.extend(m))
            qm = q**m
            s_m = row.lattice_traces[m - 1]
            assert count == qm * qm + qm * (1 + s_m) + 1, (q, coeffs, m)
            checked += 1
            m += 1
    _announce(
        6,
        f"point counts match Q^2m + Q^m(1+s_m) + 1 on {len(FROZEN_POOL)} surfaces, {checked} extensions",
    )


def test_criterion_7_h1_oracle_cross_validation():
    rows = oracle_cross_validation()
    assert len(rows) == 25
    assert all(r["order_only_2_3"] for r in rows)
    assert any(r["h1_order"] > 1 for r in rows)
    assert all(r["two_part_implies_double_six"] for r in rows)
    assert all(r["three_part_implies_triple_nine"] for r in rows)
    nontrivial = sum(1 for r in rows if r["h1_order"] > 1)
    _announce(7, f"oracle orders divide 2^a*3^b on all 25 classes, {nontrivial} nontrivial, implications hold")


def test_criterion_8_density_experiment():
    t0 = time.time()
    config = ExperimentConfig(
        q=2,
        degree_bounds=(1, 2, 3),
        samples_per_degree=200,
        max_place_degree=3,
        seed=DENSITY_SEED,
    )
    report = run_density(config)
    densities = [row["h1_trivial_density"] for row in report["rows"]]
    assert all(d is not None for d in densities)
    assert all(a <= b + 1e-12 for a, b in zip(densities, densities[1:])), densities
    assert densities[-1] >= DENSITY_MIN_AT_TOP_DEGREE, densities
    elapsed = time.time() - t0
    assert elapsed < 1800
    _announce(8, f"H1-trivial densities {['%.3f' % d for d in densities]} non-decreasing, >= 0.9 at D=3 ({elapsed:.0f}s)")


#: sha256 of the criterion-9 density report
DETERMINISM_REPORT_SHA256 = "75624e8f957f8862729de63c0afd8e4e1e09510765071b00dc4773fe7d244887"


def test_criterion_9_determinism():
    config = ExperimentConfig(
        q=2, degree_bounds=(1,), samples_per_degree=4, seed="determinism",
        max_places=3, min_usable_places=1, point_budget=5000, line_budget=10**6,
    )
    first = report_to_json(run_density(config))
    second = report_to_json(run_density(config))
    assert first == second
    assert hashlib.sha256(first.encode()).hexdigest() == DETERMINISM_REPORT_SHA256
    table_hash = build_class_table().content_hash
    assert json.loads(first)["table_hash"] == table_hash
    assert build_class_table.__wrapped__().content_hash == table_hash
    _announce(9, "byte-identical reports and reproducible table hashes")
