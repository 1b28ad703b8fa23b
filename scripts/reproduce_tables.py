#!/usr/bin/env python3
"""Regenerate the two headline tables and cross-check formulas against search.

Table A: complete-graph deficiencies for n = 1..max-complete, both the
exhaustive-search values and the closed forms, including the literal
square-rule column whose size-2 entry disagrees with the operational value.

Table B: cordiality residue rules for cycles, mobius ladders, and wheels,
formula versus search, with witness verdicts.

The complete size-2 divergence is expected and annotated; it does not fail
the run. Any other mismatch fails the run.
"""

import argparse
import csv
import sys
from pathlib import Path

from cordial import MIN_SIZE, FamilySpec, cross_validate
from cordial.cli import worker_count
from cordial.families import REGISTRY


def parse_args(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-complete", type=int, default=14,
                    help="largest complete graph to search (default 14)")
    ap.add_argument("--max-small", type=int, default=12,
                    help="largest cycle/mobius/wheel size to search (default 12)")
    ap.add_argument("--workers", type=worker_count, default=1)
    ap.add_argument("--csv-dir", type=Path, default=None,
                    help="also write complete_table.csv and families_table.csv here")
    return ap.parse_args(argv)


def _cell(value) -> str:
    if value is None:
        return "-"
    return value.render()


def complete_table(args):
    specs = [FamilySpec("complete", n) for n in range(1, args.max_complete + 1)]
    report = cross_validate(specs)
    formula = REGISTRY["complete"].formula
    rows = []
    for r in report.rows:
        rows.append({
            "n": r.size,
            "cordial": "yes" if r.cordial else "no",
            "ced_search": _cell(r.ced),
            "ced_formula": _cell(formula("ced", r.size)),
            "cvd_search": _cell(r.cvd),
            "cvd_formula": _cell(formula("cvd", r.size)),
            "cvd_square_rule": _cell(formula("cvd_square_rule", r.size)),
            "match": "yes" if r.match else "no",
            "notes": "; ".join(r.notes),
        })
    return report, rows


def families_table(args):
    specs = []
    for family in ("cycle", "mobius", "wheel"):
        sizes = range(MIN_SIZE[family], args.max_small + 1)
        specs += [FamilySpec(family, s) for s in sizes]
    report = cross_validate(specs)
    rows = []
    for r in report.rows:
        rows.append({
            "family": r.family,
            "size": r.size,
            "cordial": "yes" if r.cordial else "no",
            "ced": _cell(r.ced),
            "cvd": _cell(r.cvd),
            "source": r.source,
            "witnesses": " ".join(
                f"{kind}:{'ok' if ok else 'BAD'}" for kind, ok in r.witnesses
            ),
            "match": "yes" if r.match else "no",
        })
    return report, rows


def print_aligned(rows, columns) -> None:
    widths = {c: max([len(c), *(len(str(row[c])) for row in rows)]) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(str(row[c]).ljust(widths[c]) for c in columns))


def write_csv(path: Path, rows, columns) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")


def main(argv=None) -> int:
    args = parse_args(argv)

    report_a, rows_a = complete_table(args)
    cols_a = ["n", "cordial", "ced_search", "ced_formula", "cvd_search",
              "cvd_formula", "cvd_square_rule", "match", "notes"]
    print("Table A: complete graphs")
    print_aligned(rows_a, cols_a)
    print()

    report_b, rows_b = families_table(args)
    cols_b = ["family", "size", "cordial", "ced", "cvd", "source",
              "witnesses", "match"]
    print("Table B: cycles, mobius ladders, wheels")
    print_aligned(rows_b, cols_b)
    print()

    if args.csv_dir is not None:
        args.csv_dir.mkdir(parents=True, exist_ok=True)
        write_csv(args.csv_dir / "complete_table.csv", rows_a, cols_a)
        write_csv(args.csv_dir / "families_table.csv", rows_b, cols_b)

    bad = []
    for r in report_a.mismatches + report_b.mismatches:
        if (r.family, r.size) == ("complete", 2):
            print(f"known divergence: {r.family} size {r.size} "
                  f"(square-rule form vs operational value)")
        else:
            bad.append(r)
    if bad:
        for r in bad:
            print(f"MISMATCH: {r.family} size {r.size}: {'; '.join(r.notes)}")
        return 1
    print("all rows consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
