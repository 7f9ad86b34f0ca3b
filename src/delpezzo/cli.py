"""Command-line front door: verify, surface, density, tables.

Reports are JSON with sorted keys and no timestamps, so identical inputs give
byte-identical outputs; every report embeds the derived-table content hash.

Surface files: one surface per line, ``p k : c1,...,c20`` with the twenty
coefficients in graded-lex monomial order (x > y > z > w).  Each coefficient
is either an integer (the counter encoding of a field element) or a
polynomial in u over the prime field, like ``u^2+u+1`` or ``2u^3+1``
(nonnegative integer coefficients, ``+`` separated); any u-polynomial makes
the whole line a surface over F_q[u].  Standalone polynomial flags (places)
use the comma-separated coefficient format, constant term first.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import __version__
from .certify import build_class_table, h1_certificate, subgroup_exclusion_certificate
from .certify import CycleTypeObservation, PlaceEvidence
from .experiment import (
    BadPlaceError,
    ExperimentConfig,
    FunctionFieldCubic,
    places_up_to,
    report_to_csv,
    report_to_json,
    run_density,
    specialize,
)
from .gf import FieldSizeError, UniPoly, field, is_prime
from .surface import (
    BudgetExceeded,
    CubicForm,
    NOT_SMOOTH,
    NotSmoothOrBadReduction,
    frobenius_class,
    smoothness_certificate,
    splitting_degree,
    trace_sequence,
)
from .verify import full_report, schlafli_report, stabilizer_chain_check, verify_table1


class SurfaceFileError(ValueError):
    """Malformed surface input, tagged with its line number."""


_TERM_RE = re.compile(r"^(\d+)?(u(\^(\d+))?)?$")


def parse_u_polynomial(text: str, base) -> UniPoly:
    """`2u^3+u+1`-style literal over the prime field."""
    coeffs: dict[int, int] = {}
    for term in text.replace(" ", "").split("+"):
        m = _TERM_RE.match(term)
        if not m or not term:
            raise ValueError(f"bad polynomial term {term!r}")
        scalar = int(m.group(1)) if m.group(1) else 1
        degree = 0
        if m.group(2):
            degree = int(m.group(4)) if m.group(4) else 1
        coeffs[degree] = coeffs.get(degree, 0) + scalar
    top = max(coeffs, default=0)
    encodings = [coeffs.get(d, 0) % base.p for d in range(top + 1)]
    return UniPoly.from_ints(base, encodings)


def parse_surface_line(line: str):
    """-> (line kind, surface): CubicForm or FunctionFieldCubic."""
    head, _, tail = line.partition(":")
    parts = head.split()
    if len(parts) != 2:
        raise ValueError("expected header 'p k : coefficients'")
    p, k = int(parts[0]), int(parts[1])
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    fs = field(p, k)
    tokens = [t.strip() for t in tail.split(",") if t.strip()]
    if len(tokens) != 20:
        raise ValueError(f"expected 20 coefficients, got {len(tokens)}")
    if any("u" in t for t in tokens):
        if k != 1:
            raise ValueError("function-field surfaces use a prime base field")
        polys = tuple(parse_u_polynomial(t, fs) for t in tokens)
        return "function-field", FunctionFieldCubic(fs, polys)
    return "finite-field", CubicForm.from_ints(fs, [int(t) for t in tokens])


def read_surface_file(path: str):
    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                out.append((lineno, *parse_surface_line(line)))
            except ValueError as exc:
                raise SurfaceFileError(f"{path}:{lineno}: {exc}") from exc
    return out


def _emit(report: dict, args) -> None:
    text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    if args.degree is not None:
        checks = [c.to_json() for c in verify_table1(full_aut_d1=args.full_aut)
                  if f"d={args.degree}" in c.claim or c.claim.endswith(f"n_{args.degree}")]
        if 1 <= args.degree <= 6:
            checks += [c.to_json() for c in stabilizer_chain_check(args.degree)]
        if args.degree == 3:
            checks += [c.to_json() for c in schlafli_report()]
        report = {"checks": checks, "all_pass": all(c["pass"] for c in checks)}
    else:
        report = full_report(full_aut_d1=args.full_aut)
    _emit(report, args)
    ok = report.get("all_pass", False)
    if not ok:
        failures = report.get("failures") or [c["claim"] for c in report.get("checks", []) if not c["pass"]]
        print("FAILED: " + "; ".join(failures), file=sys.stderr)
    return 0 if ok else 1


def _analyze_finite_field_surface(form: CubicForm, table, args) -> dict:
    verdict = smoothness_certificate(
        form, point_budget=args.budget_points, line_budget=args.budget_lines
    )
    report = {
        "field": {"p": form.field.p, "k": form.field.k},
        "coefficients": form.coefficient_encodings(),
        "smoothness": verdict.to_json(),
        "rational_lines": verdict.line_counts.get(1),
        "table_hash": table.content_hash,
    }
    try:
        ts = trace_sequence(form, 6, budget=args.budget_points)
        report["traces"] = list(ts.values)
    except NotSmoothOrBadReduction as exc:
        report["traces"] = None
        report["trace_error"] = str(exc)
    if verdict.status != NOT_SMOOTH:
        try:
            ev = frobenius_class(
                form,
                table,
                point_budget=args.budget_points,
                line_budget=args.budget_lines,
                verdict=verdict,
            )
            report["frobenius"] = ev.to_json()
            report["splitting_degree"] = splitting_degree(ev, table)
        except NotSmoothOrBadReduction as exc:
            report["frobenius"] = None
            report["frobenius_error"] = str(exc)
    return report


def _analyze_function_field_surface(form: FunctionFieldCubic, table, args) -> dict:
    places = places_up_to(form.base, args.max_place_degree)
    per_place = []
    evidence = []
    for place in places:
        label = place.format()
        entry = {"place": label}
        try:
            special = specialize(form, place)
        except BadPlaceError as exc:
            entry["status"] = "bad_place"
            entry["detail"] = str(exc)
            per_place.append(entry)
            continue
        sub = _analyze_finite_field_surface(special, table, args)
        entry.update(sub)
        entry["status"] = sub["smoothness"]["status"]
        per_place.append(entry)
        if sub.get("frobenius") and sub["smoothness"]["status"] != NOT_SMOOTH:
            evidence.append(PlaceEvidence(label, tuple(sub["frobenius"]["class_ids"])))
    report = {
        "base_field": {"p": form.base.p, "k": form.base.k},
        "coefficients": [c.format() or "0" for c in form.coeffs],
        "places": per_place,
        "table_hash": table.content_hash,
    }
    if evidence:
        obs = CycleTypeObservation(tuple(evidence))
        report["h1_certificate"] = h1_certificate(obs, table).to_json()
        report["subgroup_exclusion"] = subgroup_exclusion_certificate(obs, table).to_json()
    return report


def cmd_surface(args) -> int:
    table = build_class_table()
    try:
        surfaces = read_surface_file(args.input)
    except SurfaceFileError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    reports = []
    for lineno, kind, form in surfaces:
        if kind == "finite-field":
            entry = _analyze_finite_field_surface(form, table, args)
        else:
            entry = _analyze_function_field_surface(form, table, args)
        entry["line"] = lineno
        entry["kind"] = kind
        reports.append(entry)
    _emit({"surfaces": reports}, args)
    return 0


def cmd_density(args) -> int:
    config = ExperimentConfig(
        q=args.q,
        degree_bounds=tuple(args.degrees),
        samples_per_degree=args.samples,
        max_place_degree=args.max_place_degree,
        max_places=args.max_places,
        min_usable_places=args.min_usable_places,
        point_budget=args.budget_points,
        line_budget=args.budget_lines,
        seed=args.seed,
        early_stop=not args.no_early_stop,
    )
    try:
        config.validate()
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    report = run_density(config)
    text = report_to_json(report)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report_to_csv(report))
    return 0


def cmd_tables(args) -> int:
    table = build_class_table()
    report = {
        "content_hash": table.content_hash,
        "cycle_types_separate_classes": table.cycle_types_separate_classes,
        "char_polys_separate_classes": table.char_polys_separate_classes,
        "classes": [r.to_json() for r in table.rows],
        "subgroups": [table.subgroups[n].to_json() for n in sorted(table.subgroups)],
    }
    _emit(report, args)
    return 0


def _add_budget_flags(sub, points_default: int, lines_default: int) -> None:
    sub.add_argument("--budget-points", type=int, default=points_default,
                     help="max nominal point evaluations q^(3m) per trace level")
    sub.add_argument("--budget-lines", type=int, default=lines_default,
                     help="max nominal line patterns q^(4m) per enumeration")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delpezzo",
        description="exceptional-curve combinatorics and cubic-surface arithmetic",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the combinatorial verification suite")
    p_verify.add_argument("-d", "--degree", type=int, default=None,
                          help="restrict to one degree (default: all)")
    p_verify.add_argument("--all", action="store_true", help="run everything (default)")
    p_verify.add_argument("--full-aut", action="store_true",
                          help="also search the full degree-1 symmetry group (minutes)")
    p_verify.add_argument("--json", help="write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_surface = sub.add_parser("surface", help="analyze surfaces from a file")
    p_surface.add_argument("input", help="surface file (p k : c1,...,c20 per line)")
    p_surface.add_argument("--max-place-degree", type=int, default=3)
    _add_budget_flags(p_surface, 300_000, 10**11)
    p_surface.add_argument("--json", help="write the JSON report here")
    p_surface.set_defaults(func=cmd_surface)

    p_density = sub.add_parser("density", help="run the function-field density experiment")
    p_density.add_argument("-q", type=int, default=2, help="base field size (prime)")
    p_density.add_argument("-D", "--degrees", type=int, nargs="+", default=[1, 2, 3],
                           help="coefficient degree bounds")
    p_density.add_argument("-N", "--samples", type=int, default=200,
                           help="samples per degree bound")
    p_density.add_argument("--max-place-degree", type=int, default=3)
    p_density.add_argument("--max-places", type=int, default=8)
    p_density.add_argument("--min-usable-places", type=int, default=3,
                           help="samples with fewer usable places count as skipped")
    _add_budget_flags(p_density, 300_000, 10**11)
    p_density.add_argument("--seed", default="0")
    p_density.add_argument("--no-early-stop", action="store_true")
    p_density.add_argument("--json", help="write the JSON report here")
    p_density.add_argument("--csv", help="write the per-degree CSV here")
    p_density.set_defaults(func=cmd_density)

    p_tables = sub.add_parser("tables", help="dump the derived class table and hashes")
    p_tables.add_argument("--json", help="write the JSON report here")
    p_tables.set_defaults(func=cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceeded, FieldSizeError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
