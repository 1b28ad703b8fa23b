"""Command line front end.

Four subcommands: compute (values for one graph, by formula, by exhaustive
search, or both with a match verdict), construct (emit a certificate),
verify (check a certificate file), table (cross-validate families over a
size range). Closed forms and constructions come from families.REGISTRY.
Exit codes: 0 success, 1 semantic failure such as a rejected certificate or
a formula/search mismatch, 2 usage or structural errors.

Every process compiles and runs the modules it imports, so the module level
imports only what the parser and main need: argparse, the errors main
catches, and graph_core and certify for the family names, sizes and
constants. Each handler imports what it runs: verify only the certify chain,
construct families, compute oracle only when it searches and families only
when it reads a closed form, table cross_validate; json and csv load only
for their --format.
"""

from __future__ import annotations

import argparse
import sys

from .certify import DEFAULT_MAX_VERTICES, MEASURES, DeficiencyValue
from .errors import CordialError, MalformedCertificate, SelfCheckFailed
from .graph_core import FAMILIES, MIN_SIZE, FamilySpec, parse_edge_list


def worker_count(text: str) -> int:
    """argparse type for --workers: rejects counts below 1 before any work."""
    workers = int(text)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"workers must be at least 1, got {workers}")
    return workers


def vertex_cap(text: str) -> int:
    """argparse type for --max-vertices: rejects a negative cap before any work."""
    cap = int(text)
    if cap < 0:
        raise argparse.ArgumentTypeError(f"max-vertices must be non-negative, got {cap}")
    return cap


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cordial",
        description="Exact cordiality and deficiency computations with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="values for one graph")
    p.set_defaults(run=_cmd_compute)
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--n", type=int, help="family size parameter")
    p.add_argument("--graph", metavar="PATH", help="edge list file instead of a family")
    p.add_argument("--measure", choices=MEASURES + ("all",), default="all")
    p.add_argument("--method", choices=("oracle", "formula", "both"), default="both")
    p.add_argument("--workers", type=worker_count, default=1)
    p.add_argument("--max-vertices", type=vertex_cap, default=DEFAULT_MAX_VERTICES)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("construct", help="emit a certificate for a family member")
    p.set_defaults(run=_cmd_construct)
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", choices=MEASURES, required=True)
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("verify", help="check a certificate file")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("certificate", metavar="PATH")

    p = sub.add_parser("table", help="cross-validate families over a size range")
    p.set_defaults(run=_cmd_table)
    p.add_argument(
        "--families",
        default="complete,cycle,mobius,wheel",
        help="comma-separated family names",
    )
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--workers", type=worker_count, default=1)
    p.add_argument("--max-vertices", type=vertex_cap, default=DEFAULT_MAX_VERTICES)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    return parser


def _usage(message: str) -> int:
    """Print an exit-2 message on stderr and return 2."""
    print(message, file=sys.stderr)
    return 2


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def _render(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return "unavailable" if value is None else value.describe()


def _json_value(value):
    """A deficiency as its number or "infinity"; any other value as it is."""
    if not isinstance(value, DeficiencyValue):
        return value
    return "infinity" if value.is_infinite else value.value


def _cmd_compute(args) -> int:
    measures = MEASURES if args.measure == "all" else (args.measure,)
    known = None
    if args.graph is not None:
        if args.family is not None or args.n is not None:
            return _usage("error: --graph excludes --family/--n")
        if args.method != "oracle":
            return _usage("error: closed forms need a named family; use --method oracle")
        g = parse_edge_list(_read(args.graph))
        n, m = g.n, g.m
        ident = f"graph from {args.graph}"
    else:
        if args.family is None or args.n is None:
            return _usage("error: need --family with --n, or --graph")
        spec = FamilySpec(args.family, args.n)
        n, m = spec.vertex_count, spec.edge_count
        if args.method != "oracle":
            from .families import REGISTRY

            known = REGISTRY[args.family]
        ident = f"{args.family} n={args.n}"

    searched = {}
    if args.method != "formula":
        from .oracle import check_search_size, solve

        if args.graph is None:  # a member beyond the cap is refused before its build
            check_search_size(n, args.max_vertices)
            g = spec.build()
        searched = solve(g, measures, max_vertices=args.max_vertices, workers=args.workers)
    # each entry is the measure's JSON object once _json_value converts its deficiencies
    results: dict[str, dict] = {}
    for meas in measures:
        formula = None if known is None else known.formula(meas, args.n)
        found = searched.get(meas)
        oracle = None
        if found is not None:
            oracle = found.witness is not None if meas == "cordial" else found.value
        entry = results[meas] = {
            "formula": formula,
            "oracle": oracle,
            "match": None if formula is None or oracle is None else formula == oracle,
        }
        if meas == "cordial" and found is not None and found.witness is not None:
            entry["witness"] = "".join(map(str, found.witness.labels))
        if meas == "cvd" and known is not None:
            literal = known.formula("cvd_square_rule", args.n)
            if literal not in (None, formula):
                entry["notes"] = [f"square-rule form gives {literal.render()};"
                                  f" operational minimum is {formula.render()}"]

    if args.method == "formula" and all(e["formula"] is None for e in results.values()):
        return _usage(f"error: no closed form for {ident}")
    exit_code = 1 if any(e["match"] is False for e in results.values()) else 0

    if args.format == "json":
        import json

        results = {meas: {key: _json_value(value) for key, value in e.items()}
                   for meas, e in results.items()}
        payload = {"graph": ident, "n": n, "m": m, "method": args.method,
                   "results": results}
        print(json.dumps(payload, indent=2))
        return exit_code

    print(f"{ident}: {n} vertices, {m} edges")
    for meas, e in results.items():
        if known is not None:
            print(f"{meas} formula = {_render(e['formula'])}")
        if e["oracle"] is not None:
            suffix = f" (witness {e['witness']})" if e.get("witness") else ""
            print(f"{meas} oracle = {_render(e['oracle'])}{suffix}")
        if e["match"]:
            print(f"{meas} MATCH")
        elif e["match"] is False:
            print(f"{meas} MISMATCH (formula {_render(e['formula'])},"
                  f" oracle {_render(e['oracle'])})")
        for note in e.get("notes", ()):
            print(f"note: {note}")
    return exit_code


def _cmd_construct(args) -> int:
    from .certify import serialize_certificate
    from .families import REGISTRY

    build = REGISTRY[args.family].constructions.get(args.target)
    if build is None:
        raise CordialError(f"no {args.target} construction for family {args.family!r}")
    cert = build(args.n)
    text = serialize_certificate(cert)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out}: kind={cert.kind} claimed_value={cert.claimed_value}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    from .certify import check_certificate, parse_certificate

    cert = parse_certificate(_read(args.certificate))
    verdict = check_certificate(cert)
    if not verdict.accepted:
        print(f"Rejected: {verdict.reason}")
        return 1
    if cert.family is not None:
        graph = f"{cert.family} n={cert.param}"
    else:
        graph = f"explicit graph with {cert.n} vertices"
    print(f"Accepted: {cert.kind} certificate for {graph}"
          f" (claimed_value {cert.claimed_value})")
    return 0


def _cmd_table(args) -> int:
    names = tuple(s.strip() for s in args.families.split(",") if s.strip())
    if not names:
        return _usage("error: --families names no family")
    for name in names:
        if name not in FAMILIES:
            return _usage(f"error: unknown family {name!r}")
    specs = [FamilySpec(name, size) for name in names
             for size in range(MIN_SIZE[name], args.max_n + 1)]
    if not specs:
        return _usage("error: empty size range")
    from .certify import cross_validate

    report = cross_validate(specs, max_vertices=args.max_vertices)
    exit_code = 0 if report.all_match else 1

    if args.format == "json":
        import json

        rows = [{**{key: _json_value(value) for key, value in r._asdict().items()},
                 "witnesses": [{"kind": k, "accepted": ok} for k, ok in r.witnesses]}
                for r in report.rows]
        print(json.dumps({"rows": rows, "all_match": report.all_match}, indent=2))
        return exit_code

    dash = "" if args.format == "csv" else "-"

    def cell(value) -> str:
        if value is None:
            return dash
        if isinstance(value, bool):
            return "yes" if value else "no"
        return value.render() if isinstance(value, DeficiencyValue) else str(value)

    header = ["family", "size", "cordial", "ced", "cvd", "source", "match"]
    rows = [[cell(getattr(r, column)) for column in header] for r in report.rows]
    if args.format == "csv":
        import csv

        csv.writer(sys.stdout, lineterminator="\n").writerows([header, *rows])
        return exit_code
    widths = ("<9", ">4", "<7", "<9", "<9", "<8", "<5")
    notes = ["notes", *("; ".join(r.notes) for r in report.rows)]
    for cells, note in zip([header, *rows], notes):
        print(*(format(c, w) for c, w in zip(cells, widths)), note)
    return exit_code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except MalformedCertificate as exc:
        return _usage(f"Malformed: {exc}")
    except SelfCheckFailed as exc:
        print(f"internal self-check failed: {exc}", file=sys.stderr)
        return 1
    # a file that is not UTF-8 is malformed input, like any other
    except (CordialError, OSError, UnicodeError) as exc:
        return _usage(f"error: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())
