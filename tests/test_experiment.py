import json

import pytest

from delpezzo import experiment, surface
from delpezzo.certify import (
    INCONCLUSIVE,
    H1_TRIVIAL,
    NO_STABLE_DOUBLE_SIX,
    NO_STABLE_TRIPLE_NINE,
    NOT_IN_LISTED_SUBGROUPS,
    Certificate,
    PlaceEvidence,
    build_class_table,
    h1_certificate,
    subgroup_exclusion_certificate,
)
from delpezzo.experiment import (
    BadPlaceError,
    CounterRng,
    ExperimentConfig,
    FunctionFieldCubic,
    SampleOutcome,
    analyze_sample,
    place_evidence,
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
        # monic, and of degree <= 3 without a root in F_2
        assert p.coeffs[-1] == 1 and all(p.evaluate(x) != 0 for x in range(F2.order) if p.degree > 1)


def _constant_cubic(encodings):
    return FunctionFieldCubic(F2, tuple(UniPoly.from_ints(F2, [e]) for e in encodings))


def test_specialize_constant_coefficients_is_identity():
    fermat = [1 if e in ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)) else 0 for e in MONOMIALS]
    form = _constant_cubic(fermat)
    place_u = places_up_to(F2, 1)[0]  # the place u
    special = specialize(form, place_u)
    assert special.field.order == 2
    assert list(special.coeffs) == fermat


def test_specialize_kills_coefficient_u_at_place_u():
    coeffs = [UniPoly.from_ints(F2, [0, 1])] + [UniPoly.from_ints(F2, [1])] * 19
    form = FunctionFieldCubic(F2, tuple(coeffs))
    place_u = places_up_to(F2, 1)[0]
    special = specialize(form, place_u)
    assert special.coeffs[0] == 0


def test_function_field_cubic_needs_twenty_coefficients():
    with pytest.raises(ValueError, match="exactly 20 coefficients"):
        FunctionFieldCubic(F2, (UniPoly.from_ints(F2, [0, 1]),) * 19)


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
    from delpezzo.surface import CubicForm

    # F_2 digits encode alike in GF(4)
    roots = [x for x in range(f4.order) if UniPoly(f4, place.coeffs).evaluate(x) == 0]
    assert len(roots) == 2
    evidences = []
    for root in roots:
        coeffs = tuple(UniPoly(f4, c.coeffs).evaluate(root) for c in form.coeffs)
        if all(c == 0 for c in coeffs):
            pytest.skip("degenerate sample")
        surf = CubicForm(f4, coeffs)
        if smoothness_certificate(surf).status == "not_smooth":
            pytest.skip("singular sample")
        ev = frobenius_class(surf, table, point_budget=10**6, line_budget=10**7)
        evidences.append(ev.class_ids)
    assert evidences[0] == evidences[1]


def test_place_enumeration_stops_at_the_limit(monkeypatch):
    from delpezzo import gf

    first8 = places_up_to(F2, 4)  # 2 + 1 + 2 + 3 places
    tested = []
    is_irreducible = gf._prime_poly_irreducible
    monkeypatch.setattr(gf, "_prime_poly_irreducible", lambda f, p: tested.append(f) or is_irreducible(f, p))
    assert places_up_to(F2, 15, limit=8) == first8
    # every monic of degree <= 4 and none above: x^4+x^3+x^2+x+1 is the last
    assert len(tested) == 2 + 4 + 8 + 16


def test_density_report_ignores_place_degrees_past_the_places_used():
    def report(max_place_degree):
        config = ExperimentConfig(
            q=2, degree_bounds=(1,), samples_per_degree=2, seed="lazy", max_place_degree=max_place_degree,
            min_usable_places=1, point_budget=5000, line_budget=10**6,
        )
        out = run_density(config)
        assert out["config"].pop("max_place_degree") == max_place_degree
        return out

    assert report(4) == report(15)


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
    with pytest.raises(ValueError):
        ExperimentConfig(q=2, degree_bounds=(1, -1)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(q=2, min_usable_places=0).validate()
    with pytest.raises(ValueError) as line_budget:
        ExperimentConfig(q=2, line_budget=-1).validate()
    assert str(line_budget.value) == "line_budget (--budget-lines) must be >= 0, not -1"


def test_too_few_places_for_a_usable_sample_is_an_invalid_config():
    # F_2 has 2 places of degree 1 and 5 of degree <= 3
    with pytest.raises(ValueError, match="2 places of degree <= 1"):
        run_density(ExperimentConfig(q=2, degree_bounds=(1,), samples_per_degree=1, max_place_degree=1))
    with pytest.raises(ValueError, match="fewer than min_usable_places 6"):
        ExperimentConfig(q=2, min_usable_places=6).validate()
    ExperimentConfig(q=2, min_usable_places=5).validate()
    ExperimentConfig(q=2, max_place_degree=1, min_usable_places=2).validate()


def test_run_density_counts_no_stable_double_six(monkeypatch):
    table = build_class_table()
    h1 = Certificate(NO_STABLE_DOUBLE_SIX, {"DoubleSixStab": "0,1"}, table.content_hash)
    exclusion = Certificate(INCONCLUSIVE, {}, table.content_hash)
    outcome = SampleOutcome(["0,1", "1,1", "1,1,1"], [], h1, exclusion, False)
    monkeypatch.setattr(experiment, "analyze_sample", lambda *args: outcome)
    config = ExperimentConfig(q=2, degree_bounds=(1,), samples_per_degree=3, seed="ds")
    row = run_density(config)["rows"][0]
    assert row["no_stable_double_six"] == row["usable"] == 3
    assert row["h1_trivial"] == row["no_stable_triple_nine"] == row["h1_inconclusive"] == 0
    assert row["exclusion_inconclusive"] == 3
    assert row["h1_trivial_density"] == 0.0


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


def test_early_stop_never_changes_a_tally(monkeypatch):
    # the density rows against a loop that uses every usable place of every
    # sample; analyze_sample stops early on some samples, and never
    # specializes a place after its stop
    # eight places (degree <= 4), so a sample can stop with places left over
    config = ExperimentConfig(q=2, degree_bounds=(1, 2), samples_per_degree=4, seed="early-stop",
                              max_place_degree=4)
    table = build_class_table()
    places = places_up_to(F2, config.max_place_degree, config.max_places)
    h1_keys = {H1_TRIVIAL: "h1_trivial", NO_STABLE_DOUBLE_SIX: "no_stable_double_six",
               NO_STABLE_TRIPLE_NINE: "no_stable_triple_nine"}
    specialized = []
    monkeypatch.setattr(experiment, "specialize", lambda f, p: specialized.append(p.format()) or specialize(f, p))
    stopped = 0
    for row in run_density(config)["rows"]:
        expect = dict.fromkeys(["skipped", "h1_trivial", "no_stable_double_six", "no_stable_triple_nine",
                                "h1_inconclusive", "not_in_listed_subgroups", "exclusion_inconclusive"], 0)
        for index in range(config.samples_per_degree):
            rng = CounterRng(f"{config.seed}/q2/D{row['degree_bound']}/n{index}")
            form = sample_form(F2, row["degree_bound"], rng)
            evidence = tuple(PlaceEvidence(label, ev.class_ids)
                             for label, _, _, ev in place_evidence(
                                 form, places, table, config.point_budget, config.line_budget)
                             if ev is not None)
            if len(evidence) < config.min_usable_places:
                expect["skipped"] += 1
                continue
            expect[h1_keys.get(h1_certificate(evidence, table).kind, "h1_inconclusive")] += 1
            exclusion = subgroup_exclusion_certificate(evidence, table).kind
            expect["not_in_listed_subgroups" if exclusion == NOT_IN_LISTED_SUBGROUPS
                   else "exclusion_inconclusive"] += 1

            specialized.clear()
            outcome = analyze_sample(form, places, config, table)
            usable = [e.place for e in evidence]
            assert outcome.used_places == usable[: len(outcome.used_places)]
            if len(outcome.used_places) < len(usable):
                stopped += 1
                assert len(outcome.used_places) >= config.min_usable_places
                assert outcome.h1.kind == H1_TRIVIAL
                assert outcome.exclusion.kind == NOT_IN_LISTED_SUBGROUPS
                assert specialized[-1] == outcome.used_places[-1]
        assert {k: row[k] for k in expect} == expect
    assert stopped > 0


def test_place_evidence_eliminates_once_per_reduction(monkeypatch):
    # `frobenius_class` reads the verdict that `smoothness_certificate`
    # memoised on the reduction: one Macaulay elimination per place
    table = build_class_table()
    built = []
    macaulay = surface._macaulay_matrix

    def counting(form):
        built.append(form)
        return macaulay(form)

    monkeypatch.setattr(surface, "_macaulay_matrix", counting)
    places = places_up_to(F2, 3)
    reductions = smooth = 0
    for n in range(4):
        form = sample_form(F2, 2, CounterRng(f"eliminate/{n}"))
        for _, reduction, verdict, ev in place_evidence(form, places, table, 300_000, 10**11):
            if verdict is not None:
                reductions += 1
                smooth += ev is not None
                assert built[-1] is reduction
    assert len(built) == reductions and 0 < smooth < reductions
