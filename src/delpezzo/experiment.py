"""The density experiment over the rational function field F_q(u).

Cubic forms with polynomial coefficients of degree <= D are sampled uniformly
(seeded, counter-based RNG, documented below), specialized at the finite
places of degree <= s (monic irreducibles in counter order; the place at
infinity is skipped), and each usable place contributes its Frobenius
ambiguity set until both the cohomology-triviality and the subgroup-exclusion
certificates hold; densities are reported per coefficient degree bound over
the skip-adjusted sample.

RNG: block t of stream `s` is SHA-256(f"{s}:{t}"), consumed as big-endian
64-bit words; uniform draws below n use rejection sampling.  Each sample owns
the stream f"{seed}/q{q}/D{D}/n{index}", so any subset of samples can be
recomputed independently and in any order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass
from functools import lru_cache

from .certify import (
    Certificate,
    H1_TRIVIAL,
    NOT_IN_LISTED_SUBGROUPS,
    NO_STABLE_DOUBLE_SIX,
    NO_STABLE_TRIPLE_NINE,
    PlaceEvidence,
    build_class_table,
    h1_certificate,
    subgroup_exclusion_certificate,
)
from .gf import TABLE_FIELD_CAP, Element, FieldSpec, UniPoly, _least_root, field, is_prime, monic_irreducibles
from .surface import SMOOTH_CERTIFIED, CubicForm, frobenius_class, smoothness_certificate


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
    """A cubic form whose 20 coefficients are polynomials in u over the prime
    field F_q."""

    base: FieldSpec
    coeffs: tuple[UniPoly, ...]

    def __post_init__(self):
        if self.base.k != 1:
            raise ValueError("function-field surfaces use a prime base field")
        if len(self.coeffs) != 20:
            raise ValueError("a quaternary cubic has exactly 20 coefficients")
        if all(c.is_zero() for c in self.coeffs):
            raise ValueError("the zero form does not define a surface")


class BadPlaceError(RuntimeError):
    """The specialization at this place degenerates (zero form)."""


@lru_cache(maxsize=None)
def _place_root(place_coeffs: tuple, base: FieldSpec) -> tuple[FieldSpec, Element]:
    """The deterministic (least) root of a monic irreducible in the extension
    of its degree, together with that field."""
    target = field(base.p, len(place_coeffs) - 1)
    return target, _least_root(place_coeffs, target)


def specialize(form: FunctionFieldCubic, place: UniPoly) -> CubicForm:
    """Evaluate every coefficient at the canonical root of the place; the
    result lives over GF(q^deg place)."""
    target, root = _place_root(place.coeffs, form.base)
    # prime-field coefficients are encoded alike in the target
    coeffs = tuple(UniPoly(target, c.coeffs).evaluate(root) for c in form.coeffs)
    if not any(coeffs):
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
    #: a sample with fewer usable places is reported as skipped; a config
    #: with fewer places than this in all is invalid
    min_usable_places: int = 3
    point_budget: int = 300_000
    # nominal: the q^(4m) echelon row pairs over GF(q^m); a scan costs about
    # q^(2m), one pass over a plane, so this reaches fields of order up to
    # 562 (GF(512) for q = 2) at about 10 ms a scan
    line_budget: int = 10**11
    seed: str = "0"

    def validate(self) -> None:
        # `field` refuses a larger q, without a trial division
        if self.q <= TABLE_FIELD_CAP and not is_prime(self.q):
            raise ValueError(f"q (-q) must be prime, not {self.q}")
        if self.samples_per_degree < 0:
            raise ValueError(f"samples_per_degree (-N) must be >= 0, not {self.samples_per_degree}")
        if self.max_place_degree < 1:
            raise ValueError(f"max_place_degree (--max-place-degree) must be >= 1, not {self.max_place_degree}")
        if self.max_places < 1:
            raise ValueError(f"max_places (--max-places) must be >= 1, not {self.max_places}")
        if any(d < 0 for d in self.degree_bounds):
            raise ValueError(f"degree_bounds (-D) must be >= 0, not {min(self.degree_bounds)}")
        if self.min_usable_places < 1:
            raise ValueError(f"min_usable_places (--min-usable-places) must be >= 1, not {self.min_usable_places}")
        base = field(self.q, 1)  # a field without tables is the first fault to name
        if self.point_budget < self.q**3:
            raise ValueError(f"point_budget (--budget-points) must be >= q^3 = {self.q**3}, not {self.point_budget}")
        if self.line_budget < 0:
            raise ValueError(f"line_budget (--budget-lines) must be >= 0, not {self.line_budget}")
        places = len(places_up_to(base, self.max_place_degree, self.max_places))
        if places < self.min_usable_places:
            raise ValueError(f"{places} places of degree <= {self.max_place_degree} within max_places "
                             f"{self.max_places}, fewer than min_usable_places {self.min_usable_places}: "
                             f"every sample would be skipped")

    def to_json(self) -> dict:
        # a sample always stops once both certificates hold; the key stays so
        # that reports keep their bytes
        return {**asdict(self), "early_stop": True}


@dataclass
class SampleOutcome:
    used_places: list[str]
    bad_places: list[str]
    h1: Certificate | None
    exclusion: Certificate | None
    #: fewer usable places than the config's min_usable_places
    skipped: bool


def places_up_to(base: FieldSpec, max_degree: int, limit: int | None = None) -> list[UniPoly]:
    """The finite places of degree <= max_degree, by degree and then in
    counter order; with a limit, the first `limit`, enumerated degree by
    degree up to the degree that completes them."""
    places = (f for s in range(1, max_degree + 1) for f in monic_irreducibles(base, s))
    return list(itertools.islice(places, limit))


def place_evidence(
    form: FunctionFieldCubic, places: list[UniPoly], table, point_budget: int, line_budget: int
):
    """Per place, lazily: (label, the reduction or the BadPlaceError raised
    instead, its smoothness verdict or None, its Frobenius evidence or None).
    Frobenius evidence is gathered only on a smooth reduction, and a consumer
    that stops early never specializes the later places."""
    for place in places:
        label = place.format()
        try:
            special = specialize(form, place)
        except BadPlaceError as exc:
            yield label, exc, None, None
            continue
        verdict = smoothness_certificate(special)
        ev = None
        if verdict.status == SMOOTH_CERTIFIED:
            ev = frobenius_class(special, table, point_budget=point_budget, line_budget=line_budget)
        yield label, special, verdict, ev


def analyze_sample(
    form: FunctionFieldCubic,
    places: list[UniPoly],
    config: ExperimentConfig,
    table,
) -> SampleOutcome:
    """Gather place evidence for one function-field surface and certify; stop
    once enough places are used and both certificates hold (more places only
    strengthen them, so the tallies are those of every place)."""
    evidence: tuple[PlaceEvidence, ...] = ()
    used: list[str] = []
    bad: list[str] = []
    h1 = exclusion = None
    for label, _, _, ev in place_evidence(
        form, places[: config.max_places], table, config.point_budget, config.line_budget
    ):
        if ev is None:
            bad.append(label)
            continue
        used.append(label)
        evidence += (PlaceEvidence(label, ev.class_ids),)
        h1 = h1_certificate(evidence, table)
        exclusion = subgroup_exclusion_certificate(evidence, table)
        if (
            len(used) >= config.min_usable_places
            and h1.kind == H1_TRIVIAL
            and exclusion.kind == NOT_IN_LISTED_SUBGROUPS
        ):
            break
    skipped = len(used) < config.min_usable_places
    return SampleOutcome(used, bad, h1, exclusion, skipped)


def run_density(config: ExperimentConfig) -> dict:
    """The full experiment; the returned report is deterministic in the
    config (byte-identical JSON for identical configs).  Raises ValueError
    for an invalid config, one with fewer places than min_usable_places
    among them or with a place above the table cap, before any sample runs."""
    config.validate()
    table = build_class_table()
    base = field(config.q, 1)
    places = places_up_to(base, config.max_place_degree, config.max_places)
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
            outcome = analyze_sample(form, places, config, table)
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
