"""Per-layer probes: calls into each module's public functions, timed from outside.

A traced run calls run_probes() after its passes, with the span wrappers
removed (except around cross_validate, whose self time needs spans). Each
probe repeats its calls for at least PROBE_SECONDS and reports a median, so
the figures are comparable between commits; inputs come from gen.probe_inputs.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

from spans import Tracer

PROBE_SECONDS = 0.15
SPAWNS = 7


def _median_time(fn, min_seconds: float = PROBE_SECONDS) -> float:
    """Median seconds of fn() over at least three calls and min_seconds."""
    times = []
    start = perf_counter()
    while len(times) < 3 or perf_counter() - start < min_seconds:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _spawn_s(code: str, env: dict) -> float:
    """Median seconds of a fresh interpreter running code, after one warm-up."""
    times = []
    for _ in range(SPAWNS + 1):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times[1:])


def run_probes(p: dict, env: dict) -> dict:
    from cordial import certify, cli, families, graph_core, labeling, oracle

    def build(spec):
        return graph_core.FamilySpec(*spec).build()

    out = {}
    texts = p["texts"]
    edges = sum(graph_core.parse_edge_list(t).m for t in texts)
    t = _median_time(lambda: [graph_core.parse_edge_list(x) for x in texts])
    out["graph_core.parse_ns_per_edge"] = t / edges * 1e9
    t = _median_time(lambda: [build(s) for s in p["families"]])
    out["graph_core.build_us"] = t / len(p["families"]) * 1e6

    graphs = [build(s) for s in p["families"]]
    rng = random.Random(p["seed"])
    labelings = [labeling.VertexLabeling(tuple(rng.randrange(2) for _ in range(g.n)))
                 for g in graphs]
    pairs = list(zip(graphs, labelings))
    t = _median_time(lambda: [labeling.balance(g, f) for g, f in pairs])
    out["labeling.balance_ns_per_edge"] = t / sum(g.m for g in graphs) * 1e9
    t = _median_time(lambda: [labeling.parity_obstruction(g) for g in graphs])
    out["labeling.parity_us"] = t / len(graphs) * 1e6

    scans = {"cordial": oracle.decide_cordial, "ced": oracle.ced_oracle,
             "cvd": oracle.cvd_oracle}
    probe_graphs = [build(s) for s in p["oracle_graphs"]]
    for mode, fn in scans.items():
        space = sum(p["space"][mode])
        t = _median_time(lambda: [fn(g) for g in probe_graphs])
        out[f"oracle.ns_per_labeling.{mode}"] = t / space * 1e9
    small = [build(s) for s in p["small"]]
    t = _median_time(lambda: [fn(g) for g in small for fn in scans.values()])
    out["oracle.call_overhead_us"] = t / (3 * len(small)) * 1e6
    workers = min(2, os.cpu_count() or 1)
    g = graph_core.parse_edge_list(p["w2_text"])
    w1 = _median_time(lambda: oracle.cvd_oracle(g, workers=1), 0)
    w2 = _median_time(lambda: oracle.cvd_oracle(g, workers=workers), 0)
    out["oracle.w2_speedup"] = w1 / w2
    k6 = build(["complete", 6])
    w1 = _median_time(lambda: oracle.cvd_oracle(k6, workers=1), 0)
    w2 = _median_time(lambda: oracle.cvd_oracle(k6, workers=workers), 0)
    out["oracle.pool_start_ms"] = (w2 - w1) * 1e3

    splice = [getattr(families, name) for name in
              ("construct_mobius_labeling", "mobius_ced_witness", "mobius_cvd_witness")]
    spliced = [(splice[0], k) for k in p["splice_cordial"]]
    spliced += [(fn, k) for k in p["splice_witness"] for fn in splice[1:]]
    others = [(getattr(families, name), n) for name, n in p["other"]]
    for key, calls in (("splice", spliced), ("other", others)):
        t = _median_time(lambda: [fn(n) for fn, n in calls])
        out[f"families.construct_ms.{key}"] = t / len(calls) * 1e3

    made = [fn(n) for fn, n in spliced + others]
    certs = [families.instance_certificate(x)
             if isinstance(x, families.LabeledFamilyInstance) else x for x in made]
    t = _median_time(lambda: [certify.check_certificate(c) for c in certs])
    out["certify.check_us"] = t / len(certs) * 1e6
    t = _median_time(lambda: [certify.parse_certificate(certify.serialize_certificate(c))
                              for c in certs])
    out["certify.roundtrip_us"] = t / len(certs) * 1e6
    tracer = Tracer()
    specs = [graph_core.FamilySpec(*s) for s in p["xv_specs"]]
    tracer.install()
    try:
        _median_time(lambda: [certify.cross_validate([s]) for s in specs])
    finally:
        tracer.restore()
    out["certify.cross_validate_self_ms"] = tracer.self_ms_of("certify.cross_validate")

    out["cli.interpreter_s"] = _spawn_s("pass", env)
    out["cli.import_s"] = _spawn_s("import cordial", env) - out["cli.interpreter_s"]
    sink = io.StringIO()

    def mains():
        for argv in p["cli_jobs"]:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli.main(argv)
            sink.seek(0)
            sink.truncate()

    t = _median_time(mains, 0)
    out["cli.main_ms"] = t / len(p["cli_jobs"]) * 1e3
    return out
