"""Command-line front door: verify, surface, density, tables.

Reports are JSON with sorted keys and no timestamps, so identical inputs give
byte-identical outputs; every report embeds the derived-table content hash.

Surface files: one surface per line, ``p k : c1,...,c20`` with the twenty
coefficients in graded-lex monomial order (x > y > z > w).  Each coefficient
is either an integer (the counter encoding of a field element) or a
polynomial in u over the prime field, like ``u^2+u+1`` or ``2u^3+1``
(nonnegative integer coefficients, ``+`` separated); any u-polynomial makes
the whole line a surface over F_p[u], and then k must be 1.  Reports label
each place of such a surface by its coefficients, comma separated and
constant term first: over F_2, ``1,1,1`` is u^2+u+1.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import __version__
from .certify import PlaceEvidence, build_class_table, h1_certificate, subgroup_exclusion_certificate
from .experiment import (
    ExperimentConfig,
    FunctionFieldCubic,
    place_evidence,
    places_up_to,
    report_to_csv,
    report_to_json,
    run_density,
)
from .gf import TABLE_FIELD_CAP, FieldSizeError, UniPoly, field, is_prime
from .surface import (
    BudgetExceeded,
    CubicForm,
    SMOOTH_CERTIFIED,
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
    text = report_to_json(report)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    if args.all and args.degree is not None:
        print("verify: --all and --degree exclude each other", file=sys.stderr)
        return 2
    if args.degree is not None:
        if not 1 <= args.degree <= 7:
            print(f"verify: degree must be in 1..7, got {args.degree}", file=sys.stderr)
            return 2
        table1 = verify_table1(degrees=(args.degree,))
        checks = [c.to_json() for c in table1 if c.degree == args.degree]
        if 1 <= args.degree <= 6:
            checks += [c.to_json() for c in stabilizer_chain_check(args.degree)]
        if args.degree == 3:
            checks += [c.to_json() for c in schlafli_report()]
        report = {"checks": checks, "all_pass": all(c["pass"] for c in checks)}
    else:
        report = full_report()
    _emit(report, args)
    ok = report.get("all_pass", False)
    if not ok:
        failures = report.get("failures") or [c["claim"] for c in report.get("checks", []) if not c["pass"]]
        print("FAILED: " + "; ".join(failures), file=sys.stderr)
    return 0 if ok else 1


def _surface_report(form: CubicForm, verdict, ev, table, args) -> dict:
    """The report of one surface over a finite field, from its smoothness
    verdict and its Frobenius evidence (None unless smooth)."""
    report = {
        "field": {"p": form.field.p, "k": form.field.k},
        "coefficients": form.coefficient_encodings(),
        "smoothness": verdict.to_json(),
        "rational_lines": None,
        "table_hash": table.content_hash,
    }
    try:
        report["traces"] = list(trace_sequence(form, 6, budget=args.budget_points))
    except NotSmoothOrBadReduction as exc:
        report["traces"] = None
        report["trace_error"] = str(exc)
    if ev is not None:
        report["frobenius"] = ev.to_json()
        report["rational_lines"] = ev.line_counts.get(1)
        report["splitting_degree"] = splitting_degree(ev, table)
    return report


def _analyze_finite_field_surface(form: CubicForm, table, args) -> dict:
    verdict = smoothness_certificate(form)
    ev = None
    if verdict.status == SMOOTH_CERTIFIED:
        ev = frobenius_class(form, table, point_budget=args.budget_points, line_budget=args.budget_lines)
    return _surface_report(form, verdict, ev, table, args)


def _analyze_function_field_surface(form: FunctionFieldCubic, table, args) -> dict:
    per_place = []
    evidence: tuple[PlaceEvidence, ...] = ()
    records = place_evidence(form, places_up_to(form.base, args.max_place_degree), table,
                             args.budget_points, args.budget_lines)
    for label, reduction, verdict, ev in records:
        if verdict is None:
            per_place.append({"place": label, "status": "bad_place", "detail": str(reduction)})
            continue
        entry = _surface_report(reduction, verdict, ev, table, args)
        per_place.append({"place": label, **entry, "status": verdict.status})
        if ev is not None:
            evidence += (PlaceEvidence(label, ev.class_ids),)
    report = {
        "base_field": {"p": form.base.p, "k": form.base.k},
        "coefficients": [c.format() or "0" for c in form.coeffs],
        "places": per_place,
        "table_hash": table.content_hash,
    }
    if evidence:
        report["h1_certificate"] = h1_certificate(evidence, table).to_json()
        report["subgroup_exclusion"] = subgroup_exclusion_certificate(evidence, table).to_json()
    return report


def cmd_surface(args) -> int:
    try:
        surfaces = read_surface_file(args.input)
    except SurfaceFileError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    # the field each line needs tables for; q^s > TABLE_FIELD_CAP for every
    # q >= 2 once s passes the cap's bit length
    s = min(args.max_place_degree, TABLE_FIELD_CAP.bit_length())
    orders = [form.field.order if kind == "finite-field" else form.base.order**s for _, kind, form in surfaces]
    if s < 1 or max(orders, default=1) > TABLE_FIELD_CAP:
        print(f"surface: --max-place-degree must be >= 1, and there are no arithmetic tables above "
              f"order {TABLE_FIELD_CAP} for a surface's GF(q) or its places' GF(q^s)", file=sys.stderr)
        return 2
    table = build_class_table()
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


def _density_config(args) -> ExperimentConfig:
    """The experiment configuration of parsed `density` arguments."""
    return ExperimentConfig(
        q=args.q,
        degree_bounds=tuple(args.degrees),
        samples_per_degree=args.samples,
        max_place_degree=args.max_place_degree,
        max_places=args.max_places,
        min_usable_places=args.min_usable_places,
        point_budget=args.budget_points,
        line_budget=args.budget_lines,
        seed=args.seed,
    )


def cmd_density(args) -> int:
    config = _density_config(args)
    try:
        config.validate()
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    report = run_density(config)
    _emit(report, args)
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


#: the defaults of the `surface` and `density` flags
DEFAULTS = ExperimentConfig()


def _add_budget_flags(sub) -> None:
    sub.add_argument("--budget-points", type=int, default=DEFAULTS.point_budget,
                     help="max size q^(3m) of P^3 over the field of a point count, whose "
                          "work is about q^(2m) (traces and Frobenius evidence; "
                          "smoothness needs no budget)")
    sub.add_argument("--budget-lines", type=int, default=DEFAULTS.line_budget,
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
                          help="restrict to one degree in 1..7 (default: all)")
    p_verify.add_argument("--all", action="store_true", help="run everything (default)")
    p_verify.add_argument("--json", help="write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_surface = sub.add_parser("surface", help="analyze surfaces from a file")
    p_surface.add_argument("input", help="surface file (p k : c1,...,c20 per line)")
    p_surface.add_argument("--max-place-degree", type=int, default=DEFAULTS.max_place_degree)
    _add_budget_flags(p_surface)
    p_surface.add_argument("--json", help="write the JSON report here")
    p_surface.set_defaults(func=cmd_surface)

    p_density = sub.add_parser("density", help="run the function-field density experiment")
    p_density.add_argument("-q", type=int, default=DEFAULTS.q, help="base field size (prime)")
    p_density.add_argument("-D", "--degrees", type=int, nargs="+", default=list(DEFAULTS.degree_bounds),
                           help="coefficient degree bounds")
    p_density.add_argument("-N", "--samples", type=int, default=DEFAULTS.samples_per_degree,
                           help="samples per degree bound")
    p_density.add_argument("--max-place-degree", type=int, default=DEFAULTS.max_place_degree)
    p_density.add_argument("--max-places", type=int, default=DEFAULTS.max_places)
    p_density.add_argument("--min-usable-places", type=int, default=DEFAULTS.min_usable_places,
                           help="samples with fewer usable places count as skipped")
    _add_budget_flags(p_density)
    p_density.add_argument("--seed", default=DEFAULTS.seed)
    p_density.add_argument("--json", help="write the JSON report here")
    p_density.add_argument("--csv", help="write the per-degree CSV here")
    p_density.set_defaults(func=cmd_density)

    p_tables = sub.add_parser("tables", help="dump the derived class table and hashes")
    p_tables.add_argument("--json", help="write the JSON report here")
    p_tables.set_defaults(func=cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if min(getattr(args, "budget_points", 0), getattr(args, "budget_lines", 0)) < 0:
        print(f"{args.command}: --budget-points and --budget-lines must be >= 0", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (BudgetExceeded, FieldSizeError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
