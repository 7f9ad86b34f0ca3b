import json

import pytest

from delpezzo.certify import build_class_table
from delpezzo.experiment import (
    BadPlaceError,
    CounterRng,
    ExperimentConfig,
    FunctionFieldCubic,
    analyze_sample,
    places_up_to,
    report_to_csv,
    report_to_json,
    run_density,
    sample_form,
    specialize,
)
from delpezzo.gf import UniPoly, field
from delpezzo.surface import MONOMIALS, frobenius_class, smoothness_certificate

F2 = field(2, 1)


def test_counter_rng_deterministic_and_plausibly_uniform():
    a = CounterRng("seed")
    b = CounterRng("seed")
    draws = [a.below(10) for _ in range(3000)]
    assert draws == [b.below(10) for _ in range(3000)]
    counts = [draws.count(v) for v in range(10)]
    assert min(counts) > 200 and max(counts) < 400
    assert CounterRng("other").below(10**9) != CounterRng("seed").below(10**9)


def test_counter_rng_rejects_bad_bound():
    with pytest.raises(ValueError):
        CounterRng("s").below(0)


def test_sample_form_deterministic_and_bounded():
    f1 = sample_form(F2, 2, CounterRng("x"))
    f2 = sample_form(F2, 2, CounterRng("x"))
    assert f1 == f2
    assert all(c.degree <= 2 for c in f1.coeffs)
    assert any(not c.is_zero() for c in f1.coeffs)


def test_places_over_f2():
    labels = [p.format() for p in places_up_to(F2, 3)]
    assert labels == ["0,1", "1,1", "1,1,1", "1,1,0,1", "1,0,1,1"]
    for p in places_up_to(F2, 3):
        assert p.is_monic() and p.is_irreducible()


def _constant_cubic(encodings):
    return FunctionFieldCubic(F2, tuple(UniPoly.from_ints(F2, [e]) for e in encodings))


def test_specialize_constant_coefficients_is_identity():
    fermat = [1 if e in ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)) else 0 for e in MONOMIALS]
    form = _constant_cubic(fermat)
    place_u = places_up_to(F2, 1)[0]  # the place u
    special = specialize(form, place_u)
    assert special.field.order == 2
    assert special.coefficient_encodings() == fermat


def test_specialize_kills_coefficient_u_at_place_u():
    coeffs = [UniPoly.from_ints(F2, [0, 1])] + [UniPoly.from_ints(F2, [1])] * 19
    form = FunctionFieldCubic(F2, tuple(coeffs))
    place_u = places_up_to(F2, 1)[0]
    special = specialize(form, place_u)
    assert special.coefficient_encodings()[0] == 0


def test_specialize_zero_form_is_bad_place():
    coeffs = [UniPoly.from_ints(F2, [0, 1])] * 20  # every coefficient is u
    form = FunctionFieldCubic(F2, tuple(coeffs))
    with pytest.raises(BadPlaceError):
        specialize(form, places_up_to(F2, 1)[0])


def test_conjugate_root_gives_same_frobenius_class():
    # degree-2 place over F_2: both roots give conjugate surfaces
    table = build_class_table()
    form = sample_form(F2, 2, CounterRng("conj-test"))
    place = places_up_to(F2, 2)[2]  # u^2+u+1
    assert place.degree == 2
    f4 = field(2, 2)
    from delpezzo.gf import embed
    from delpezzo.surface import CubicForm

    lift = embed(F2, f4)
    roots = [x for x in f4.elements() if f4.is_zero(place.evaluate(x, into=lift))]
    assert len(roots) == 2
    evidences = []
    for root in roots:
        coeffs = tuple(c.evaluate(root, into=lift) for c in form.coeffs)
        if all(f4.is_zero(c) for c in coeffs):
            pytest.skip("degenerate sample")
        surf = CubicForm(f4, coeffs)
        v = smoothness_certificate(surf, point_budget=10**6, line_budget=10**7)
        if v.status == "not_smooth":
            pytest.skip("singular sample")
        ev = frobenius_class(surf, table, point_budget=10**6, line_budget=10**7, verdict=v)
        evidences.append(ev.class_ids)
    assert evidences[0] == evidences[1]


def test_all_places_bad_sample_is_skipped():
    # x^3 specializes to a triple plane at every place
    coeffs = [1] + [0] * 19
    form = _constant_cubic(coeffs)
    config = ExperimentConfig(q=2, samples_per_degree=1)
    table = build_class_table()
    outcome = analyze_sample(form, places_up_to(F2, 3), config, table)
    assert outcome.skipped
    assert outcome.used_places == []
    assert len(outcome.bad_places) == 5


def test_zero_samples_gives_empty_report():
    config = ExperimentConfig(q=2, degree_bounds=(1,), samples_per_degree=0, seed="z")
    report = run_density(config)
    row = report["rows"][0]
    assert row["samples"] == 0
    assert row["h1_trivial_density"] is None
    json.dumps(report)


def test_density_report_deterministic_bytes():
    config = ExperimentConfig(
        q=2, degree_bounds=(1,), samples_per_degree=3, seed="det", max_places=3,
        min_usable_places=1, point_budget=5000, line_budget=10**6,
    )
    first = report_to_json(run_density(config))
    second = report_to_json(run_density(config))
    assert first == second
    report = json.loads(first)
    assert report["table_hash"] == build_class_table().content_hash


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(q=4).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(q=2, max_places=0).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(q=7, point_budget=10).validate()


def test_csv_round_trip():
    config = ExperimentConfig(
        q=2, degree_bounds=(1,), samples_per_degree=2, seed="csv", max_places=2,
        min_usable_places=1, point_budget=5000, line_budget=10**6,
    )
    report = run_density(config)
    csv = report_to_csv(report)
    lines = csv.strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    values = lines[1].split(",")
    row = dict(zip(header, values))
    assert row["degree_bound"] == "1"
    assert int(row["samples"]) == 2


@pytest.mark.parametrize("max_places", [1, 2])
def test_sample_with_too_few_usable_places_is_skipped(max_places):
    # a smooth cubic over F_2 with constant coefficients: every degree-1 place
    # is usable, so max_places caps the usable count below the default 3
    smooth = [1, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1]
    form = _constant_cubic(smooth)
    table = build_class_table()
    places = places_up_to(F2, 3)
    strict = ExperimentConfig(q=2, max_places=max_places, point_budget=5000, line_budget=10**6)
    outcome = analyze_sample(form, places, strict, table)
    assert len(outcome.used_places) == max_places
    assert outcome.skipped
    lenient = ExperimentConfig(
        q=2, max_places=max_places, min_usable_places=max_places, point_budget=5000, line_budget=10**6
    )
    assert not analyze_sample(form, places, lenient, table).skipped
