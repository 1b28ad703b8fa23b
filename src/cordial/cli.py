"""Command line front end.

Four subcommands: compute (values for one graph, by formula, by exhaustive
search, or both with a match verdict), construct (emit a certificate),
verify (check a certificate file), table (cross-validate families over a
size range). Closed forms and constructions come from families.REGISTRY.
Exit codes: 0 success, 1 semantic failure such as a rejected certificate or
a formula/search mismatch, 2 usage or structural errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import families as fam
from .certify import (
    Certificate,
    check_certificate,
    cross_validate,
    parse_certificate,
    serialize_certificate,
)
from .errors import CordialError, MalformedCertificate, SelfCheckFailed
from .graph_core import FAMILIES, MIN_SIZE, FamilySpec, MultiGraph, parse_edge_list
from .labeling import VertexLabeling
from .oracle import (
    DEFAULT_MAX_VERTICES,
    MEASURES,
    DeficiencyValue,
    check_search_size,
    solve,
)


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
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--n", type=int, help="family size parameter")
    p.add_argument("--graph", metavar="PATH", help="edge list file instead of a family")
    p.add_argument("--measure", choices=MEASURES + ("all",), default="all")
    p.add_argument("--method", choices=("oracle", "formula", "both"), default="both")
    p.add_argument("--workers", type=worker_count, default=1)
    p.add_argument("--max-vertices", type=vertex_cap, default=DEFAULT_MAX_VERTICES)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("construct", help="emit a certificate for a family member")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", choices=MEASURES, required=True)
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("verify", help="check a certificate file")
    p.add_argument("certificate", metavar="PATH")

    p = sub.add_parser("table", help="cross-validate families over a size range")
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


def _render(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, DeficiencyValue):
        return value.describe()
    return str(value)


def _json_value(value):
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, DeficiencyValue):
        return "infinity" if value.is_infinite else value.value
    return value


def _cmd_compute(args) -> int:
    measures = MEASURES if args.measure == "all" else (args.measure,)
    family = None
    if args.graph is not None:
        if args.family is not None or args.n is not None:
            print("error: --graph excludes --family/--n", file=sys.stderr)
            return 2
        if args.method != "oracle":
            print(
                "error: closed forms need a named family; use --method oracle",
                file=sys.stderr,
            )
            return 2
        g = parse_edge_list(Path(args.graph).read_text())
        n, m = g.n, g.m
        ident = f"graph from {args.graph}"
    else:
        if args.family is None or args.n is None:
            print("error: need --family with --n, or --graph", file=sys.stderr)
            return 2
        family = args.family
        spec = FamilySpec(family, args.n)
        n, m = spec.vertex_count, spec.edge_count
        if args.method != "formula":
            check_search_size(n, args.max_vertices)
            g = spec.build()
        ident = f"{family} n={args.n}"

    searched = {}
    if args.method != "formula":
        searched = solve(
            g, measures, max_vertices=args.max_vertices, workers=args.workers
        )
    results: dict[str, dict] = {}
    for meas in measures:
        entry: dict = {"formula": None, "oracle": None, "witness": None,
                       "match": None, "notes": []}
        if family is not None and args.method in ("formula", "both"):
            known = fam.REGISTRY[family]
            entry["formula"] = known.formula(meas, args.n)
            literal = known.formula("cvd_square_rule", args.n) if meas == "cvd" else None
            if literal is not None and literal != entry["formula"]:
                entry["notes"].append(
                    f"square-rule form gives {literal.render()};"
                    f" operational minimum is {entry['formula'].render()}"
                )
        if meas == "cordial" and meas in searched:
            witness = searched[meas].witness
            entry["oracle"] = witness is not None
            entry["witness"] = witness and VertexLabeling(witness.labels).to_string()
        elif meas in searched:
            entry["oracle"] = searched[meas].value
        if entry["formula"] is not None and entry["oracle"] is not None:
            entry["match"] = entry["formula"] == entry["oracle"]
        results[meas] = entry

    if args.method == "formula" and all(
        results[m]["formula"] is None for m in measures
    ):
        print(f"error: no closed form for {ident}", file=sys.stderr)
        return 2

    exit_code = 0
    if any(results[m]["match"] is False for m in measures):
        exit_code = 1

    if args.format == "json":
        payload = {
            "graph": ident,
            "n": n,
            "m": m,
            "method": args.method,
            "results": {},
        }
        for meas in measures:
            e = results[meas]
            out = {
                "formula": _json_value(e["formula"]),
                "oracle": _json_value(e["oracle"]),
                "match": e["match"],
            }
            if e["witness"] is not None:
                out["witness"] = e["witness"]
            if e["notes"]:
                out["notes"] = e["notes"]
            payload["results"][meas] = out
        print(json.dumps(payload, indent=2))
        return exit_code

    print(f"{ident}: {n} vertices, {m} edges")
    for meas in measures:
        e = results[meas]
        if args.method in ("formula", "both") and family is not None:
            rendered = "unavailable" if e["formula"] is None else _render(e["formula"])
            print(f"{meas} formula = {rendered}")
        if e["oracle"] is not None:
            suffix = f" (witness {e['witness']})" if e["witness"] else ""
            print(f"{meas} oracle = {_render(e['oracle'])}{suffix}")
        if e["match"] is not None:
            if e["match"]:
                print(f"{meas} MATCH")
            else:
                print(
                    f"{meas} MISMATCH (formula {_render(e['formula'])},"
                    f" oracle {_render(e['oracle'])})"
                )
        for note in e["notes"]:
            print(f"note: {note}")
    return exit_code


def _construct(family: str, size: int, target: str) -> Certificate:
    build = fam.REGISTRY[family].constructions.get(target)
    if build is None:
        raise CordialError(f"no {target} construction for family {family!r}")
    return build(size)


def _cmd_construct(args) -> int:
    cert = _construct(args.family, args.n, args.target)
    text = serialize_certificate(cert)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}: kind={cert.kind} claimed_value={cert.claimed_value}")
    else:
        sys.stdout.write(text)
    return 0


def _describe_graph(cert: Certificate) -> str:
    if cert.family is not None:
        return f"{cert.family} n={cert.param}"
    return f"explicit graph with {cert.n} vertices"


def _cmd_verify(args) -> int:
    text = Path(args.certificate).read_text()
    cert = parse_certificate(text)
    verdict = check_certificate(cert)
    if verdict.accepted:
        print(
            f"Accepted: {cert.kind} certificate for {_describe_graph(cert)}"
            f" (claimed_value {cert.claimed_value})"
        )
        return 0
    print(f"Rejected: {verdict.reason}")
    return 1


def _cmd_table(args) -> int:
    names = tuple(s.strip() for s in args.families.split(",") if s.strip())
    for name in names:
        if name not in FAMILIES:
            print(f"error: unknown family {name!r}", file=sys.stderr)
            return 2
    specs = []
    for name in names:
        sizes = range(MIN_SIZE[name], args.max_n + 1)
        specs.extend(FamilySpec(name, s) for s in sizes)
    if not specs:
        print("error: empty size range", file=sys.stderr)
        return 2
    report = cross_validate(
        specs, max_vertices=args.max_vertices, workers=args.workers
    )

    def cell_bool(b):
        dash = "" if args.format == "csv" else "-"
        return dash if b is None else ("yes" if b else "no")

    def cell_dv(d):
        dash = "" if args.format == "csv" else "-"
        return dash if d is None else d.render()

    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["family", "size", "cordial", "ced", "cvd", "source", "match"])
        for r in report.rows:
            writer.writerow(
                [r.family, r.size, cell_bool(r.cordial), cell_dv(r.ced),
                 cell_dv(r.cvd), r.source, cell_bool(r.match)]
            )
    elif args.format == "json":
        rows = []
        for r in report.rows:
            rows.append(
                {
                    "family": r.family,
                    "size": r.size,
                    "cordial": r.cordial,
                    "ced": _json_value(r.ced),
                    "cvd": _json_value(r.cvd),
                    "source": r.source,
                    "match": r.match,
                    "witnesses": [
                        {"kind": k, "accepted": ok} for k, ok in r.witnesses
                    ],
                    "notes": list(r.notes),
                }
            )
        print(json.dumps({"rows": rows, "all_match": report.all_match}, indent=2))
    else:
        header = f"{'family':<9} {'size':>4} {'cordial':<7} {'ced':<9} {'cvd':<9} {'source':<8} {'match':<5} notes"
        print(header)
        for r in report.rows:
            notes = "; ".join(r.notes)
            print(
                f"{r.family:<9} {r.size:>4} {cell_bool(r.cordial):<7}"
                f" {cell_dv(r.ced):<9} {cell_dv(r.cvd):<9} {r.source:<8}"
                f" {cell_bool(r.match):<5} {notes}"
            )
    return 0 if report.all_match else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_table(args)
    except MalformedCertificate as exc:
        print(f"Malformed: {exc}", file=sys.stderr)
        return 2
    except SelfCheckFailed as exc:
        print(f"internal self-check failed: {exc}", file=sys.stderr)
        return 1
    except CordialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
