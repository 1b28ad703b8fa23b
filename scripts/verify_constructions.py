#!/usr/bin/env python3
"""Run every constructive labeling and witness up to a bound through the checker.

Covers every construction in cordial.families.REGISTRY at every size where it
applies: cordial constructions for complete graphs, cycles, mobius ladders,
and wheels, plus the deficiency witnesses for complete graphs (both kinds),
the 2-mod-4 mobius ladders, and the 3-mod-4 wheels. Each certificate goes
through a serialize/parse round trip before verification, so the wire format
is exercised as well. Prints a per-family summary; exits 1 if anything fails.
"""

import argparse
import sys
from collections import Counter

from cordial import MIN_SIZE, check_certificate, parse_certificate, serialize_certificate
from cordial.families import family_certificates


def all_certificates(bound: int):
    """Yield (family, description, certificate) for everything constructible."""
    for family, lo in MIN_SIZE.items():
        for size in range(lo, bound + 1):
            for target, cert in family_certificates(family, size):
                yield family, f"{target} size {size}", cert


def size_bound(text: str) -> int:
    """argparse type for --bound: a bound below 1 would check nothing."""
    bound = int(text)
    if bound < 1:
        raise argparse.ArgumentTypeError(f"bound must be at least 1, got {bound}")
    return bound


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bound", type=size_bound, default=200,
                    help="largest family size to construct (default 200)")
    ns = ap.parse_args(argv)

    checked = Counter()
    failed = []
    for family, desc, cert in all_certificates(ns.bound):
        rewired = parse_certificate(serialize_certificate(cert))
        verdict = check_certificate(rewired)
        checked[family] += 1
        if rewired != cert or not verdict.accepted:
            failed.append((family, desc, verdict.reason))

    for family in sorted(checked):
        print(f"{family:9s} {checked[family]:4d} certificates checked")
    print(f"total     {sum(checked.values()):4d}")
    if failed:
        for family, desc, reason in failed:
            print(f"FAIL {family} {desc}: {reason}")
        return 1
    print("all certificates accepted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
