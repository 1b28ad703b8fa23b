"""Expected outputs, computed without the package under test.

Three independent sources, used in this order of strength:

- a brute-force search over all 2^n labelings, for graphs of at most
  BRUTE_MAX vertices; it gives the values and the canonical witness;
- the closed forms stated in PAPER.md (and, for cycles of length 2 mod 4,
  the parity argument below);
- for everything else, recounting v0, v1, e0 and e1 of each returned witness
  straight from the edge list, which proves the value is an upper bound.

Definitions (PAPER.md): a labeling is friendly when |v0 - v1| <= 1. The edge
deficiency is the least number of edges to add, over friendly labelings, to
bring |e0 - e1| to at most 1; an added edge is loopless, so a 0-labeled edge
needs two equally labeled vertices and a 1-labeled edge a mixed pair. The
vertex deficiency is the least number of labeled isolated vertices to add,
over labelings with |e0 - e1| <= 1, to make the labeling friendly. None
stands for infinity.

This module imports nothing from the package under test.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from itertools import combinations
from math import comb

BRUTE_MAX = 12
NO_REPAIR = "NoFeasibleAugmentation"
NO_BALANCE = "StrictlyNoncordial"

# smallest size parameter of each family (README table)
MIN_SIZE = {"complete": 1, "cycle": 3, "path": 1, "ladder": 1,
            "mobius": 3, "wheel": 3}
# families with at least one closed form, as the CLI and tables report them
HAS_FORMULA = ("complete", "cycle", "mobius", "wheel")


# ------------------------------------------------------------------ graphs

def family_edges(family: str, size: int) -> tuple[int, list[list[int]]]:
    """(n, edges) of a family member, from the definitions in PAPER.md."""
    if family == "complete":
        return size, [[u, v] for u, v in combinations(range(size), 2)]
    if family == "cycle":
        return size, [[i, (i + 1) % size] for i in range(size)]
    if family == "path":
        return size, [[i, i + 1] for i in range(size - 1)]
    if family == "ladder":
        k = size
        rails = [[i, i + 1] for i in range(k - 1)]
        rails += [[k + i, k + i + 1] for i in range(k - 1)]
        return 2 * k, rails + [[i, k + i] for i in range(k)]
    if family == "mobius":
        k = size
        edges = [[i, (i + 1) % (2 * k)] for i in range(2 * k)]
        return 2 * k, edges + [[i, i + k] for i in range(k)]
    if family == "wheel":
        rim = [[i, (i + 1) % size] for i in range(size)]
        return size + 1, rim + [[i, size] for i in range(size)]
    raise ValueError(family)


def counts(n: int, edges, labels: str) -> tuple[int, int, int, int]:
    """(v0, v1, e0, e1) recounted from the edge list."""
    v1 = labels.count("1")
    e1 = sum(labels[u] != labels[v] for u, v in edges)
    return n - v1, v1, len(edges) - e1, e1


# -------------------------------------------------------- brute force search

def _bits(x: int, n: int) -> str:
    return "".join(str((x >> i) & 1) for i in range(n))


def brute_force(n: int, edges) -> dict:
    """Values and canonical witnesses by trying every labeling.

    The canonical witness is the smallest min(x, complement of x) among the
    labelings of least cost, x read with bit i as the label of vertex i.
    """
    mult = Counter((min(u, v), max(u, v)) for u, v in edges)
    pairs = [(1 << u, 1 << v, c) for (u, v), c in mult.items()]
    m = len(edges)
    full = (1 << n) - 1
    best = {"cordial": None, "ced": None, "cvd": None}
    for x in range(1 << n):
        e1 = sum(c for bu, bv, c in pairs if bool(x & bu) != bool(x & bv))
        ones = bin(x).count("1")
        zeros = n - ones
        gap = abs(m - 2 * e1)
        vdiff = abs(ones - zeros)
        canon = min(x, full ^ x)
        cands = []
        if vdiff <= 1:
            if gap <= 1:
                cands.append(("cordial", 0))
                cands.append(("ced", 0))
            elif (2 * e1 > m and (ones >= 2 or zeros >= 2)) or (
                2 * e1 < m and ones >= 1 and zeros >= 1
            ):
                cands.append(("ced", gap - 1))
        if gap <= 1:
            cands.append(("cvd", max(0, vdiff - 1)))
        for mode, cost in cands:
            if best[mode] is None or (cost, canon) < best[mode]:
                best[mode] = (cost, canon)
    out = {}
    for mode, b in best.items():
        out[mode] = None if b is None else b[0]
        out[mode + "_witness"] = None if b is None else _bits(b[1], n)
    out["cordial"] = best["cordial"] is not None
    return out


# -------------------------------------------------------------- closed forms

def cvd_complete(n: int) -> int | None:
    """Best edge-balanced split of K_n: |n - 2L| - 1 over (n - 2L)^2 near n."""
    best = None
    for ell in range(n + 1):
        j = abs(n - 2 * ell)
        if abs(j * j - n) <= 2:
            best = j if best is None else min(best, j)
    return None if best is None else max(0, best - 1)


def cvd_complete_literal(n: int) -> int | None:
    """The square-rule reading: j - 1 where n = j^2 + d, d in {-2, 0, 2}."""
    j = 1
    while j * j <= n + 2:
        if n - j * j in (-2, 0, 2):
            return j - 1
        j += 1
    return None


def closed_form(family: str, size: int) -> dict:
    """Values of every family member that PAPER.md determines.

    Cycles of length 2 mod 4: every labeling cuts a cycle in an even number
    of edges, while balance needs e1 = n/2, which is odd; so no labeling is
    edge-balanced (cvd infinite), and the friendly labeling (1100)^t 10 has
    e1 = n/2 + 1, one edge from balance (ced 1).
    """
    if family == "complete":
        cordial = size <= 3
        ced = size // 2 - 1 if size >= 2 else 0
        return {"cordial": cordial, "ced": ced, "cvd": cvd_complete(size)}
    if family in ("path", "ladder"):
        return {"cordial": True, "ced": 0, "cvd": 0}
    if family == "cycle":
        ok = size % 4 != 2
        return {"cordial": ok, "ced": 0 if ok else 1, "cvd": 0 if ok else None}
    residue = {"mobius": 2, "wheel": 3}[family]
    ok = size % 4 != residue
    return {"cordial": ok, "ced": 0 if ok else 1, "cvd": 0 if ok else 1}


def formula(family: str, size: int, measure: str) -> tuple[bool, object]:
    """(True, value) for a closed form the package reports, else (False, None)."""
    if family not in HAS_FORMULA:
        return False, None
    if family == "cycle" and measure != "cordial":
        return False, None
    if family == "complete" and measure == "ced" and size < 2:
        return False, None
    return True, closed_form(family, size)[measure]


def stream_count(n: int, mode: str) -> int:
    """Labelings a complement-halved scan visits: vertex 0 is fixed to 0."""
    if mode == "cvd":
        return 1 << (n - 1)
    return sum(comb(n - 1, v1) for v1 in {n // 2, (n + 1) // 2} if v1 <= n - 1)


# --------------------------------------------------------- witness recounts

def witness_cost(n: int, edges, mode: str, labels: str, added) -> int | None:
    """The value a witness proves, recounted; None if it proves nothing."""
    if len(labels) != n or set(labels) - {"0", "1"}:
        return None
    v0, v1, e0, e1 = counts(n, edges, labels)
    if mode == "cordial":
        ok = abs(v0 - v1) <= 1 and abs(e0 - e1) <= 1
        return 0 if ok else None
    if mode == "ced":
        if abs(v0 - v1) > 1:
            return None
        for u, v in added:
            if u == v or not (0 <= u < n and 0 <= v < n):
                return None
            if labels[u] != labels[v]:
                e1 += 1
            else:
                e0 += 1
        return len(added) if abs(e0 - e1) <= 1 else None
    if abs(e0 - e1) > 1:
        return None
    v1 += sum(added)
    v0 += len(added) - sum(added)
    return len(added) if abs(v0 - v1) <= 1 else None


# ---------------------------------------------------------------- scan jobs

def expected_values(g: dict) -> dict | None:
    """Known values and witnesses of a scan graph, or None if unknown."""
    if g["n"] <= BRUTE_MAX:
        return brute_force(g["n"], g["edges"])
    if "family" in g:
        return closed_form(*g["family"])
    if g["planted"]:
        return {"cordial": True, "ced": 0, "cvd": 0}
    return None


def check_scan(g: dict, known: dict | None, output) -> bool:
    """One scan job's output: [mode, value, reason, labels, added, examined]."""
    mode, value, reason, labels, added, examined = output
    n, edges = g["n"], g["edges"]
    if mode != "cordial" and examined != stream_count(n, mode):
        return False
    if mode == "cordial":
        if value is not (labels is not None):
            return False
    elif value is None:
        want = NO_REPAIR if mode == "ced" else NO_BALANCE
        if reason != want or labels is not None:
            return False
    if labels is not None:
        got = 0 if mode == "cordial" else value
        if witness_cost(n, edges, mode, labels, added or ()) != got:
            return False
    if known is None:
        return True
    if mode == "cordial":
        if value != known["cordial"]:
            return False
    elif value != known[mode]:
        return False
    witness = known.get(mode + "_witness")
    return witness is None or witness == labels


# ------------------------------------------------------------ validate rows

def _describe(measure: str, v) -> str:
    """A value as DeficiencyValue.describe() or the CLI's yes/no prints it."""
    if measure == "cordial":
        return "yes" if v else "no"
    if v is None:
        return f"infinity ({NO_REPAIR if measure == 'ced' else NO_BALANCE})"
    return str(v)


def _searched(family: str, size: int) -> dict:
    n, edges = family_edges(family, size)
    return brute_force(n, edges) if n <= BRUTE_MAX else closed_form(family, size)


def expected_row(family: str, size: int, max_vertices: int) -> list:
    """[cordial, ced, cvd, source, match] as cross_validate reports them.

    ced and cvd read as DeficiencyValue.describe() does, or "-" for no value.
    """
    within = family_edges(family, size)[0] <= max_vertices
    if within:
        values = _searched(family, size)
        source = "both" if family in HAS_FORMULA else "oracle"
    else:
        values = {m: formula(family, size, m) for m in ("cordial", "ced", "cvd")}
        values = {m: v if has else "-" for m, (has, v) in values.items()}
        source = "formula"
    ced, cvd = (values[m] if values[m] == "-" else _describe(m, values[m])
                for m in ("ced", "cvd"))
    # the square-rule form is compared at n = 2 and disagrees by design
    match = not (family == "complete" and within
                 and cvd_complete_literal(size) != values["cvd"])
    return [values["cordial"], ced, cvd, source, match]


# ------------------------------------------------------------------ cli jobs

def _opts(argv) -> dict:
    return dict(zip(argv[1::2], argv[2::2]))


def _render(v) -> str:
    """DeficiencyValue.render(): the number, or "infinity"."""
    return "infinity" if v is None else str(v)


def expected_compute(argv, graphs) -> tuple[int, str]:
    """Exit code and stdout of `compute`, from the reference values."""
    opts = _opts(argv)
    measure = opts.get("--measure", "all")
    measures = ("cordial", "ced", "cvd") if measure == "all" else (measure,)
    method = opts.get("--method", "both")
    if "--graph" in opts:
        family = size = None
        n, edges = graphs[opts["--graph"]]
        ident = f"graph from {opts['--graph']}"
        values = brute_force(n, edges)
    else:
        family, size = opts["--family"], int(opts["--n"])
        n, edges = family_edges(family, size)
        ident = f"{family} n={size}"
        values = _searched(family, size)
    searched = method in ("oracle", "both")
    rows = []
    for meas in measures:
        has, f = False, None
        if family is not None and method in ("formula", "both"):
            has, f = formula(family, size, meas)
        note = None
        if family == "complete" and meas == "cvd" and has:
            literal = cvd_complete_literal(size)
            if literal != f:
                note = (f"square-rule form gives {_render(literal)};"
                        f" operational minimum is {_render(f)}")
        witness = values["cordial_witness"] if meas == "cordial" and searched else None
        rows.append((meas, has, f, values[meas] if searched else None, witness, note))
    if opts.get("--format") == "json":
        results = {}
        for meas, has, f, o, witness, note in rows:
            as_json = (lambda v: v if meas == "cordial" else
                       ("infinity" if v is None else v))
            entry = {"formula": as_json(f) if has else None,
                     "oracle": as_json(o) if searched else None,
                     "match": (f == o) if has and searched else None}
            if witness:
                entry["witness"] = witness
            if note:
                entry["notes"] = [note]
            results[meas] = entry
        payload = {"graph": ident, "n": n, "m": len(edges), "method": method,
                   "results": results}
        return 0, json.dumps(payload, indent=2) + "\n"
    lines = [f"{ident}: {n} vertices, {len(edges)} edges"]
    for meas, has, f, o, witness, note in rows:
        if family is not None and method in ("formula", "both"):
            shown = _describe(meas, f) if has else "unavailable"
            lines.append(f"{meas} formula = {shown}")
        if searched:
            suffix = f" (witness {witness})" if witness else ""
            lines.append(f"{meas} oracle = {_describe(meas, o)}{suffix}")
        if has and searched:
            lines.append(f"{meas} MATCH")
        if note:
            lines.append(f"note: {note}")
    return 0, "\n".join(lines) + "\n"


def expected_table(argv) -> tuple[int, str]:
    """`table --format csv` with the default search bound of 24 vertices."""
    opts = _opts(argv)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["family", "size", "cordial", "ced", "cvd", "source", "match"])
    all_match = True
    for family in sorted(opts["--families"].split(",")):
        for size in range(MIN_SIZE[family], int(opts["--max-n"]) + 1):
            cordial, ced, cvd, source, match = expected_row(family, size, 24)
            ced, cvd = (v.split(" ")[0] for v in (ced, cvd))
            all_match &= match
            writer.writerow([family, size, "yes" if cordial else "no", ced, cvd,
                             source, "yes" if match else "no"])
    return (0 if all_match else 1), out.getvalue()


def _certificate_claim(argv) -> tuple[str, int, str, int]:
    opts = _opts(argv)
    family, size, target = opts["--family"], int(opts["--n"]), opts["--target"]
    value = 0 if target == "cordial" else closed_form(family, size)[target]
    return family, size, target, value


def check_certificate_file(text: str, family: str, size: int, target: str,
                           value: int) -> bool:
    """Recount a written certificate against the family's own edge list."""
    try:
        cert = json.loads(text)
    except ValueError:
        return False
    if (cert.get("kind"), cert.get("family"), cert.get("param"),
            cert.get("claimed_value")) != (target, family, size, value):
        return False
    n, edges = family_edges(family, size)
    if target == "ced":
        added = [tuple(p) for p in cert.get("added_edges", [])]
    elif target == "cvd":
        added = [int(c) for c in cert.get("added_vertex_labels", "")]
    else:
        added = ()
    return witness_cost(n, edges, target, cert.get("labels", ""), added) == value


def check_cli(jobs, index: int, graphs, output) -> bool:
    """output: [exit code, stdout, certificate text or None]."""
    argv = jobs[index]
    code, stdout, cert_text = output
    if argv[0] == "compute":
        return [code, stdout] == list(expected_compute(argv, graphs))
    if argv[0] == "table":
        return [code, stdout] == list(expected_table(argv))
    if argv[0] == "construct":
        family, size, target, value = _certificate_claim(argv)
        out = f"wrote {_opts(argv)['--out']}: kind={target} claimed_value={value}\n"
        return ([code, stdout] == [0, out] and cert_text is not None
                and check_certificate_file(cert_text, family, size, target, value))
    # verify: the job before it wrote the certificate
    family, size, target, value = _certificate_claim(jobs[index - 1])
    want = (f"Accepted: {target} certificate for {family} n={size}"
            f" (claimed_value {value})\n")
    return [code, stdout] == [0, want]
