"""Seeded inputs for every workload: graphs, edge-list text and job lists.

The same seed always gives the same inputs. The seed varies the content
(edge placement, planted labelings, row sizes inside fixed strata, argv sizes
inside fixed classes, job order) but never the shape of a workload: vertex
and edge counts, modes and command mix are fixed, so the cost of one pass
does not depend on the seed and runs under different seeds are comparable.

This module imports nothing from the package under test.
"""

from __future__ import annotations

import random
from itertools import combinations

from reference import family_edges, stream_count

MODES = ("cordial", "ced", "cvd")
ALL = MODES
FRIENDLY = ("cordial", "ced")

# Family members of the scan workload: (family, size, modes). cvd scans the
# full 2^(n-1) halved space, so among the larger graphs it runs on K20 only,
# whose cvd is infinite: the mix needs that outcome.
SCAN_FAMILIES = (
    ("complete", 14, ALL), ("complete", 15, ALL), ("complete", 16, ALL),
    ("complete", 18, FRIENDLY), ("complete", 20, ("cvd",)),
    ("cycle", 14, ALL), ("cycle", 15, ALL), ("cycle", 16, ALL),
    ("path", 14, ALL), ("path", 15, ALL), ("path", 16, ALL),
    ("ladder", 7, ALL), ("ladder", 8, ALL),
    ("mobius", 7, ALL), ("mobius", 8, ALL), ("mobius", 9, FRIENDLY),
    ("wheel", 13, ALL), ("wheel", 14, ALL), ("wheel", 15, ALL),
)

# Seeded random loopless multigraphs of the scan workload: (n, m, planted,
# modes). A planted graph carries a hidden cordial labeling, so its answers
# are known without a search. The m = 1000 and m = 1100 rows make incidence
# masks big ints; the sparse rows fit one machine word. The n <= 6 rows are
# checked against the brute-force reference; n = 2 with m odd >= 3 is the
# degenerate case whose edge deficiency is infinite.
SCAN_RANDOM = (
    (14, 20, False, ALL), (14, 40, True, ALL), (14, 90, False, ALL),
    (15, 22, True, ALL), (15, 60, False, ALL),
    (16, 24, False, ALL), (16, 48, True, ALL), (16, 1000, False, ALL),
    (17, 30, True, FRIENDLY), (17, 70, False, FRIENDLY),
    (18, 1100, True, FRIENDLY), (18, 1100, False, ("cordial",)),
    (19, 40, False, FRIENDLY), (20, 45, True, FRIENDLY),
    (2, 3, False, ALL), (2, 5, False, ("ced",)), (3, 4, False, ALL),
    (4, 9, False, ALL), (5, 12, False, ALL), (6, 30, False, ALL),
)


def scan_par_job(n: int, mode: str) -> bool:
    """The scan jobs scan-par reruns with two workers: 16-20 vertices, chosen
    so that job costs form plateaus around the median and the 90th
    percentile, which keeps both steady under the noise of two processes."""
    return (mode == "cvd" and n in (16, 20)) or (mode != "cvd" and n >= 17)


# validate: every searchable row (at most VALIDATE_MAX_VERTICES vertices) plus
# formula-only rows at the midpoints of equal strata of each size range. A
# row's cost grows with its size, so the sizes are fixed and the seed sets
# only the order: a seeded size would move the latency percentiles.
VALIDATE_MAX_VERTICES = 14
VALIDATE_SEARCHABLE = {
    "complete": range(1, 15), "cycle": range(3, 15), "path": range(1, 15),
    "ladder": range(1, 8), "mobius": range(3, 8), "wheel": range(3, 14),
}
# (family, first size, last size, strata)
VALIDATE_FORMULA = (
    ("mobius", 8, 400, 16), ("complete", 15, 200, 16),
    ("wheel", 14, 300, 8), ("cycle", 15, 300, 8),
)

# cli: edge-list files passed to `compute --graph`: (n, m, measure)
CLI_GRAPHS = (
    (6, 9, "all"), (7, 14, "cordial"), (8, 12, "ced"), (9, 30, "cvd"),
    (10, 15, "all"), (11, 40, "cordial"), (12, 18, "ced"), (12, 66, "cvd"),
)


def _random_edges(rng: random.Random, n: int, m: int, planted: bool):
    """m endpoint pairs on n vertices; planted ones admit a cordial labeling."""
    pairs = list(combinations(range(n), 2))
    if not planted:
        return [rng.choice(pairs) for _ in range(m)]
    ones = set(rng.sample(range(n), n // 2 + rng.randrange(n % 2 + 1)))
    cross = [p for p in pairs if (p[0] in ones) != (p[1] in ones)]
    same = [p for p in pairs if (p[0] in ones) == (p[1] in ones)]
    e1 = m // 2 + rng.randrange(m % 2 + 1)
    edges = [rng.choice(cross) for _ in range(e1)]
    edges += [rng.choice(same) for _ in range(m - e1)]
    rng.shuffle(edges)
    return edges


def edge_list_text(rng: random.Random, n: int, edges) -> str:
    """The package's edge-list format, with random orientation and comments."""
    lines = ["# seeded multigraph", f"{n} {len(edges)}"]
    for u, v in edges:
        if rng.random() < 0.5:
            u, v = v, u
        lines.append(f"{u} {v}")
        if rng.random() < 0.02:
            lines.append("# comment line")
    return "\n".join(lines) + "\n"


def scan_graphs(rng: random.Random) -> list[dict]:
    """Every scan graph: what the program sees plus what the checker knows."""
    graphs = []
    for family, size, modes in SCAN_FAMILIES:
        n, edges = family_edges(family, size)
        graphs.append({"family": [family, size], "n": n, "edges": edges,
                       "planted": False, "modes": list(modes)})
    for n, m, planted, modes in SCAN_RANDOM:
        edges = _random_edges(rng, n, m, planted)
        graphs.append({"text": edge_list_text(rng, n, edges), "n": n,
                       "edges": [list(e) for e in edges], "planted": planted,
                       "modes": list(modes)})
    return graphs


def scan_jobs(rng: random.Random, graphs, parallel: bool, workers: int):
    jobs = [[i, mode, workers] for i, g in enumerate(graphs) for mode in g["modes"]
            if not parallel or scan_par_job(g["n"], mode)]
    rng.shuffle(jobs)
    return jobs


def validate_rows(rng: random.Random) -> list[list]:
    rows = [[f, s] for f, sizes in VALIDATE_SEARCHABLE.items() for s in sizes]
    for family, lo, hi, strata in VALIDATE_FORMULA:
        width = (hi - lo) / strata
        rows += [[family, lo + int((k + 0.5) * width)] for k in range(strata)]
    rng.shuffle(rows)
    return rows


def cli_inputs(rng: random.Random, workdir: str):
    """(files, graphs, jobs) of the cli workload.

    files maps each edge-list path to its text, graphs maps it to the
    checker's (n, edges), and jobs holds the argv of every job. workdir is
    relative to the checkout root, which is where the CLI runs.
    """
    files = {}
    graphs = {}
    jobs = []
    for i, (n, m, measure) in enumerate(CLI_GRAPHS):
        path = f"{workdir}/g{i}.edges"
        edges = _random_edges(rng, n, m, planted=rng.random() < 0.5)
        files[path] = edge_list_text(rng, n, edges)
        graphs[path] = (n, edges)
        jobs.append(["compute", "--graph", path, "--measure", measure,
                     "--method", "oracle"])
    jobs += [
        ["compute", "--family", "mobius", "--n", str(rng.randint(3, 5)),
         "--method", "both"],
        ["compute", "--family", "mobius", "--n", "6", "--method", "both"],
        ["compute", "--family", "complete", "--n", "2", "--measure", "cvd",
         "--method", "both"],
        ["compute", "--family", "complete", "--n", str(rng.randint(4, 7)),
         "--method", "both"],
        ["compute", "--family", "wheel", "--n", str(rng.randint(3, 7)),
         "--method", "both"],
        ["compute", "--family", "cycle", "--n", str(rng.randint(3, 10)),
         "--method", "both"],
        ["compute", "--family", "path", "--n", str(rng.randint(4, 10)),
         "--method", "both"],
        ["compute", "--family", "ladder", "--n", str(rng.randint(2, 5)),
         "--method", "both", "--format", "json"],
        ["compute", "--family", "complete", "--n", str(rng.randint(8, 12)),
         "--measure", "cvd", "--method", "formula"],
        ["compute", "--family", "mobius", "--n", str(rng.randint(20, 40)),
         "--method", "formula", "--format", "json"],
    ]
    # Tables are the slowest commands; there are enough of them that the 90th
    # percentile falls inside their cost plateau. complete with --max-n >= 2
    # exits 1 by design (the n = 2 divergence).
    tables = (("cycle,mobius", 7), ("complete,wheel", 5), ("path,ladder", 6),
              ("wheel", 9), ("cycle,path", 10), ("mobius,ladder", 6),
              ("complete", 8), ("wheel,cycle", 8))
    jobs += [
        ["table", "--families", families, "--max-n", str(max_n), "--format", "csv"]
        for families, max_n in tables
    ]
    constructs = (
        ("mobius", rng.choice((6, 10)), "ced"),
        ("wheel", rng.choice((7, 11)), "cvd"),
        ("mobius", rng.choice((7, 8, 9, 11)), "cordial"),
        ("cycle", rng.choice((5, 7, 8, 9)), "cordial"),
    )
    for i, (family, size, target) in enumerate(constructs):
        path = f"{workdir}/cert{i}.json"
        jobs.append(["construct", "--family", family, "--n", str(size),
                     "--target", target, "--out", path])
        jobs.append(["verify", path])
    # construct/verify pairs stay adjacent; everything else is shuffled
    singles = [j for j in jobs if j[0] not in ("construct", "verify")]
    pairs = [jobs[k:k + 2] for k in range(len(singles), len(jobs), 2)]
    units = [[j] for j in singles] + pairs
    rng.shuffle(units)
    return files, graphs, [j for unit in units for j in unit]


def probe_inputs(rng: random.Random, graphs, cli_jobs) -> dict:
    """Inputs of the per-layer probes of a traced run."""
    oracle_graphs = [["complete", 14], ["mobius", 7], ["wheel", 14]]
    sizes = [family_edges(*s)[0] for s in oracle_graphs]
    w2 = next(g for g in graphs if "text" in g and g["n"] == 17)
    return {
        "seed": rng.randrange(1 << 30),
        "texts": [g["text"] for g in graphs if "text" in g],
        "families": [g["family"] for g in graphs if "family" in g],
        "oracle_graphs": oracle_graphs,
        "space": {mode: [stream_count(n, mode) for n in sizes] for mode in MODES},
        "small": [["complete", 3], ["complete", 4], ["cycle", 5], ["path", 6],
                  ["wheel", 5]],
        "w2_text": w2["text"],
        "splice_cordial": [4 * rng.randint(25, 50) + r for r in (0, 1, 3)],
        "splice_witness": [4 * rng.randint(25, 50) + 2 for _ in range(2)],
        "other": [
            ["complete_ced_witness", rng.randint(100, 200)],
            ["complete_cvd_witness", rng.randint(10, 14) ** 2],
            ["cycle_cordial_labeling", 4 * rng.randint(25, 75)],
            ["wheel_cordial_labeling", 4 * rng.randint(25, 75) + 1],
            ["wheel_ced_witness", 4 * rng.randint(25, 75) + 3],
            ["wheel_cvd_witness", 4 * rng.randint(25, 75) + 3],
        ],
        "xv_specs": [["complete", 6], ["cycle", 8], ["mobius", 4], ["wheel", 7],
                     ["mobius", rng.randint(30, 60)], ["complete", rng.randint(30, 60)]],
        "cli_jobs": cli_jobs,
    }
