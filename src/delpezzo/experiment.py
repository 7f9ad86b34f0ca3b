"""The density experiment over the rational function field F_q(u).

Cubic forms with polynomial coefficients of degree <= D are sampled uniformly
(seeded, counter-based RNG, documented below), specialized at the finite
places of degree <= s (monic irreducibles in counter order; the place at
infinity is skipped), and every usable place contributes its Frobenius
ambiguity set.  The accumulated evidence feeds the cohomology-triviality and
subgroup-exclusion certificates; densities are reported per coefficient
degree bound over the skip-adjusted sample.

RNG: block t of stream `s` is SHA-256(f"{s}:{t}"), consumed as big-endian
64-bit words; uniform draws below n use rejection sampling.  Each sample owns
the stream f"{seed}/q{q}/D{D}/n{index}", so any subset of samples can be
recomputed independently and in any order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache

from .certify import (
    Certificate,
    CycleTypeObservation,
    H1_TRIVIAL,
    NOT_IN_LISTED_SUBGROUPS,
    NO_STABLE_DOUBLE_SIX,
    NO_STABLE_TRIPLE_NINE,
    PlaceEvidence,
    build_class_table,
    h1_certificate,
    subgroup_exclusion_certificate,
)
from .gf import Element, FieldSpec, UniPoly, embed, field, is_prime, monic_irreducibles
from .surface import (
    CubicForm,
    FrobeniusEvidence,
    NOT_SMOOTH,
    NotSmoothOrBadReduction,
    frobenius_class,
    smoothness_certificate,
)


class CounterRng:
    """Deterministic counter-based random stream (SHA-256)."""

    def __init__(self, stream: str):
        self.stream = stream
        self._counter = 0
        self._words: list[int] = []

    def _refill(self) -> None:
        digest = hashlib.sha256(f"{self.stream}:{self._counter}".encode()).digest()
        self._counter += 1
        self._words = [
            int.from_bytes(digest[i : i + 8], "big") for i in range(0, 32, 8)
        ]

    def next_word(self) -> int:
        if not self._words:
            self._refill()
        return self._words.pop(0)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling on 64-bit words."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (2**64 // n) * n
        while True:
            w = self.next_word()
            if w < limit:
                return w % n


@dataclass(frozen=True)
class FunctionFieldCubic:
    """A cubic form whose 20 coefficients are polynomials in u over F_q."""

    base: FieldSpec
    coeffs: tuple[UniPoly, ...]

    def __post_init__(self):
        if len(self.coeffs) != 20:
            raise ValueError("a quaternary cubic has exactly 20 coefficients")
        if all(c.is_zero() for c in self.coeffs):
            raise ValueError("the zero form does not define a surface")

    def format(self) -> str:
        return ";".join(c.format() or "0" for c in self.coeffs)


class BadPlaceError(RuntimeError):
    """The specialization at this place degenerates (zero form)."""


@lru_cache(maxsize=None)
def _place_root(place_coeffs: tuple, base: FieldSpec) -> tuple[FieldSpec, Element]:
    """The deterministic (least) root of a monic irreducible in the extension
    of its degree, together with that field."""
    place = UniPoly(base, place_coeffs)
    target = field(base.p, base.k * place.degree)
    lift = embed(base, target)
    for n in range(target.order):
        x = target.from_int(n)
        if target.is_zero(place.evaluate(x, into=lift)):
            return target, x
    raise RuntimeError("unreachable: a degree-s irreducible has a root in GF(q^s)")


def specialize(form: FunctionFieldCubic, place: UniPoly) -> CubicForm:
    """Evaluate every coefficient at the canonical root of the place; the
    result lives over GF(q^deg place)."""
    target, root = _place_root(place.coeffs, form.base)
    lift = embed(form.base, target)
    coeffs = tuple(c.evaluate(root, into=lift) for c in form.coeffs)
    if all(target.is_zero(c) for c in coeffs):
        raise BadPlaceError(f"all coefficients vanish at place {place.format()}")
    return CubicForm(target, coeffs)


def sample_form(base: FieldSpec, degree_bound: int, rng: CounterRng) -> FunctionFieldCubic:
    """Uniform cubic form with coefficients in F_q[u] of degree <= D; the
    all-zero form is rejected and resampled."""
    q = base.order
    while True:
        coeffs = []
        for _ in range(20):
            encodings = [rng.below(q) for _ in range(degree_bound + 1)]
            coeffs.append(UniPoly.from_ints(base, encodings))
        if any(not c.is_zero() for c in coeffs):
            return FunctionFieldCubic(base, tuple(coeffs))


@dataclass(frozen=True)
class ExperimentConfig:
    q: int = 2
    degree_bounds: tuple[int, ...] = (1, 2, 3)
    samples_per_degree: int = 200
    max_place_degree: int = 3
    max_places: int = 8
    #: a sample with fewer usable places is reported as skipped
    min_usable_places: int = 3
    point_budget: int = 300_000
    # nominal pattern count; the line scan's real cost is ~(field size)^2,
    # so this reaches extensions of size 512 at interactive speed
    line_budget: int = 10**11
    seed: str = "0"
    early_stop: bool = True

    def validate(self) -> None:
        if not is_prime(self.q):
            raise ValueError("q must be prime")
        if self.samples_per_degree < 0 or self.max_place_degree < 1 or self.max_places < 1:
            raise ValueError("budgets must be positive")
        if self.point_budget < self.q**3:
            raise ValueError("point budget too small to count over the base field")

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "degree_bounds": list(self.degree_bounds),
            "samples_per_degree": self.samples_per_degree,
            "max_place_degree": self.max_place_degree,
            "max_places": self.max_places,
            "min_usable_places": self.min_usable_places,
            "point_budget": self.point_budget,
            "line_budget": self.line_budget,
            "seed": self.seed,
            "early_stop": self.early_stop,
        }


@dataclass
class SampleOutcome:
    index: int
    used_places: list[str]
    bad_places: list[str]
    h1: Certificate | None
    exclusion: Certificate | None
    #: fewer usable places than the config's min_usable_places
    skipped: bool


def places_up_to(base: FieldSpec, max_degree: int) -> list[UniPoly]:
    out = []
    for s in range(1, max_degree + 1):
        out.extend(monic_irreducibles(base, s))
    return out


def analyze_sample(
    form: FunctionFieldCubic,
    places: list[UniPoly],
    config: ExperimentConfig,
    table,
    index: int = 0,
) -> SampleOutcome:
    """Gather place evidence for one function-field surface and certify."""
    evidence: list[PlaceEvidence] = []
    used: list[str] = []
    bad: list[str] = []
    h1 = exclusion = None
    for place in places[: config.max_places]:
        label = place.format()
        try:
            special = specialize(form, place)
        except BadPlaceError:
            bad.append(label)
            continue
        verdict = smoothness_certificate(
            special,
            point_budget=config.point_budget,
            line_budget=config.line_budget,
            max_line_field=64,
        )
        if verdict.status == NOT_SMOOTH:
            bad.append(label)
            continue
        try:
            ev: FrobeniusEvidence = frobenius_class(
                special,
                table,
                point_budget=config.point_budget,
                line_budget=config.line_budget,
                verdict=verdict,
            )
        except NotSmoothOrBadReduction:
            bad.append(label)
            continue
        used.append(label)
        evidence.append(PlaceEvidence(label, ev.class_ids))
        obs = CycleTypeObservation(tuple(evidence))
        h1 = h1_certificate(obs, table)
        exclusion = subgroup_exclusion_certificate(obs, table)
        if (
            config.early_stop
            and len(used) >= config.min_usable_places
            and h1.kind == H1_TRIVIAL
            and exclusion.kind == NOT_IN_LISTED_SUBGROUPS
        ):
            break
    skipped = len(used) < config.min_usable_places
    return SampleOutcome(index, used, bad, h1, exclusion, skipped)


def run_density(config: ExperimentConfig) -> dict:
    """The full experiment; the returned report is deterministic in the
    config (byte-identical JSON for identical configs)."""
    config.validate()
    table = build_class_table()
    base = field(config.q, 1)
    places = places_up_to(base, config.max_place_degree)
    rows = []
    for degree_bound in config.degree_bounds:
        tallies = {
            "samples": config.samples_per_degree,
            "skipped": 0,
            "h1_trivial": 0,
            "no_stable_double_six": 0,
            "no_stable_triple_nine": 0,
            "h1_inconclusive": 0,
            "not_in_listed_subgroups": 0,
            "exclusion_inconclusive": 0,
        }
        for index in range(config.samples_per_degree):
            rng = CounterRng(f"{config.seed}/q{config.q}/D{degree_bound}/n{index}")
            form = sample_form(base, degree_bound, rng)
            outcome = analyze_sample(form, places, config, table, index)
            if outcome.skipped:
                tallies["skipped"] += 1
                continue
            kind = outcome.h1.kind
            if kind == H1_TRIVIAL:
                tallies["h1_trivial"] += 1
            elif kind == NO_STABLE_DOUBLE_SIX:
                tallies["no_stable_double_six"] += 1
            elif kind == NO_STABLE_TRIPLE_NINE:
                tallies["no_stable_triple_nine"] += 1
            else:
                tallies["h1_inconclusive"] += 1
            if outcome.exclusion.kind == NOT_IN_LISTED_SUBGROUPS:
                tallies["not_in_listed_subgroups"] += 1
            else:
                tallies["exclusion_inconclusive"] += 1
        usable = tallies["samples"] - tallies["skipped"]
        rows.append(
            {
                "degree_bound": degree_bound,
                **tallies,
                "usable": usable,
                "h1_trivial_density": (tallies["h1_trivial"] / usable) if usable else None,
                "exclusion_density": (
                    tallies["not_in_listed_subgroups"] / usable if usable else None
                ),
            }
        )
    return {
        "config": config.to_json(),
        "table_hash": table.content_hash,
        "rows": rows,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def report_to_csv(report: dict) -> str:
    cols = [
        "degree_bound",
        "samples",
        "skipped",
        "usable",
        "h1_trivial",
        "no_stable_double_six",
        "no_stable_triple_nine",
        "h1_inconclusive",
        "not_in_listed_subgroups",
        "exclusion_inconclusive",
        "h1_trivial_density",
        "exclusion_density",
    ]
    lines = [",".join(cols)]
    for row in report["rows"]:
        lines.append(",".join(str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"
