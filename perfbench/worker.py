"""Run one workload's job list in a fresh interpreter.

    python3 perfbench/worker.py WORKDIR [--setup-only]

WORKDIR holds inputs.json from run.py. The worker imports the package,
builds or parses every input graph, and prints "ready": run.py times set-up
up to that line. With --setup-only it stops there. Otherwise it runs passes
over the fixed job list, one job in flight at a time, until the run's
seconds are used (at least MIN_PASSES passes and MIN_JOBS jobs), and writes
results.json: pass walls, job latencies, the calibration samples
(calibrate.py) taken between jobs, the distinct outputs of every job with
their counts, and peak RSS. A traced run alternates untraced and traced
passes, then runs the layer probes.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_JOBS = 100
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# hard stop for the pass loop, far inside the 180 s a run may take
MAX_LOOP_SECONDS = 110.0


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------- set-up

def setup(inputs: dict):
    """Import the package and build the workload's inputs; return a job runner."""
    import cordial  # noqa: F401  (set-up includes the package import)
    from cordial import certify, graph_core, oracle

    workload = inputs["workload"]
    if workload in ("scan", "scan-par"):
        graphs = [
            graph_core.FamilySpec(*g["family"]).build() if "family" in g
            else graph_core.parse_edge_list(g["text"])
            for g in inputs["graphs"]
        ]
        calls = {"cordial": "decide_cordial", "ced": "ced_oracle", "cvd": "cvd_oracle"}

        jobs = inputs["jobs"]

        def run(job):
            gi, mode, workers = jobs[job]
            # looked up per call so that a traced pass sees the span wrappers
            fn = getattr(oracle, calls[mode])
            t0 = perf_counter()
            result = fn(graphs[gi], workers=workers)
            dt = perf_counter() - t0
            return dt, scan_output(mode, result)

        return run
    if workload == "validate":
        specs = [graph_core.FamilySpec(f, s) for f, s in inputs["rows"]]
        bound = inputs["max_vertices"]

        def run(job):
            t0 = perf_counter()
            report = certify.cross_validate([specs[job]], max_vertices=bound)
            dt = perf_counter() - t0
            return dt, row_output(report.rows[0])

        return run
    # cli: the runner checks every input file parses before the first job
    for path in inputs["files"]:
        graph_core.parse_edge_list((ROOT / path).read_text())
    env = cli_env()

    def run(job, shim=None):
        argv = inputs["jobs"][job]
        cmd = [sys.executable, "-m", "cordial.cli"]
        if shim is not None:
            cmd = [sys.executable, str(HERE / "cli_shim.py"), shim]
        t0 = perf_counter()
        proc = subprocess.run(cmd + argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60)
        dt = perf_counter() - t0
        cert = None
        if argv[0] == "construct":
            out = ROOT / argv[argv.index("--out") + 1]
            cert = out.read_text() if out.exists() else None
        return dt, [proc.returncode, proc.stdout, cert]

    return run


def scan_output(mode: str, result):
    if mode == "cordial":
        ok, witness = result
        return [mode, ok, None, witness.to_string() if witness else None, None, None]
    value, cert = result.value, result.witness
    labels = added = None
    if cert is not None:
        labels = "".join(str(b) for b in cert.labels)
        added = ([list(e) for e in cert.added_edges] if mode == "ced"
                 else list(cert.added_vertex_labels))
    return [mode, value.value, value.reason.value if value.reason else None,
            labels, added, result.labelings_examined]


def row_output(r):
    def dv(d):
        return "-" if d is None else d.describe()

    return [r.family, r.size, r.cordial, dv(r.ced), dv(r.cvd), r.source,
            r.match, all(ok for _, ok in r.witnesses)]


# ------------------------------------------------------------------ passes

class Passes:
    """Runs passes over the job list and keeps every measurement.

    For each untraced pass it keeps the wall time without calibration and
    (end time, latency) of every job; calibration samples are (end time,
    seconds), on the same perf_counter clock.
    """

    def __init__(self, run, n_jobs: int, calibration: str):
        self.run = run
        self.calibration = calibration
        self.n_jobs = n_jobs
        self.passes: list[dict] = []
        self.outputs = [Counter() for _ in range(n_jobs)]
        self.attempted = 0
        self.calibrations = [calibrate.sample(calibration) for _ in range(3)]

    def one(self, **kwargs) -> dict:
        """Run every job once; return {"wall": seconds, "jobs": [[end, latency]]}."""
        jobs = []
        skipped = 0.0
        t0 = perf_counter()
        for job in range(self.n_jobs):
            try:
                dt, out = self.run(job, **kwargs)
            except Exception as exc:  # an unexpected error fails the job
                dt, out = 0.0, ["error", type(exc).__name__, str(exc)]
            jobs.append([perf_counter(), dt])
            self.outputs[job][json.dumps(out)] += 1
            due = self.calibrations[-1][0] + calibrate.INTERVAL_S[self.calibration]
            if perf_counter() >= due:
                self.calibrations.append(calibrate.sample(self.calibration))
                skipped += self.calibrations[-1][1]
        self.calibrations.append(calibrate.sample(self.calibration))
        self.attempted += self.n_jobs
        return {"wall": perf_counter() - t0 - skipped, "jobs": jobs}


def run_plain(passes: Passes, seconds: float) -> None:
    start = perf_counter()
    while True:
        passes.passes.append(passes.one())
        elapsed = perf_counter() - start
        done = (elapsed >= seconds and len(passes.passes) >= MIN_PASSES
                and passes.attempted >= MIN_JOBS)
        if done or elapsed >= MAX_LOOP_SECONDS:
            return


def run_traced(passes: Passes, seconds: float, workload: str, workdir: Path) -> dict:
    """Alternate untraced and traced passes; return the span-derived metrics."""
    from spans import LAYERS, Tracer

    tracer = Tracer()
    traced_walls, self_times, busy, examined = [], [], [], []
    start = perf_counter()
    while True:
        passes.passes.append(passes.one())
        mark, seen = tracer.mark(), tracer.examined
        if workload == "cli":
            wall = traced_cli_pass(passes, tracer, workdir)
        else:
            tracer.install()
            try:
                wall = passes.one()["wall"]
            finally:
                tracer.restore()
        traced_walls.append(wall)
        self_times.append(tracer.self_times(mark))
        busy.append(tracer.busy("oracle", mark) / wall)
        examined.append(tracer.examined - seen)
        elapsed = perf_counter() - start
        done = elapsed >= seconds and len(traced_walls) >= MIN_TRACED_PAIRS
        if done or elapsed >= MAX_LOOP_SECONDS:
            break
    tracer.dump(str(workdir / "spans.json"))
    metrics = {
        f"{layer}.self_s": statistics.median(t[layer] for t in self_times)
        for layer in LAYERS
    }
    metrics["oracle.busy_frac"] = statistics.median(busy)
    metrics["oracle.labelings_examined"] = examined[0]
    # each traced pass against the untraced pass just before it, so that a
    # drift in machine speed between passes cancels
    metrics["trace.overhead_s"] = statistics.median(
        t - p["wall"] for t, p in zip(traced_walls, passes.passes))
    return metrics


def traced_cli_pass(passes: Passes, tracer, workdir: Path) -> float:
    """One cli pass through the span-recording shim; spans come back by file."""
    shim_out = workdir / "shim_spans.json"
    t0 = perf_counter()
    for job in range(passes.n_jobs):
        shim_out.unlink(missing_ok=True)
        try:
            _, out = passes.run(job, shim=str(shim_out))
            data = json.loads(shim_out.read_text())
            tracer.extend(data["spans"], data["examined"])
        except Exception as exc:
            out = ["error", type(exc).__name__, str(exc)]
        passes.outputs[job][json.dumps(out)] += 1
    passes.attempted += passes.n_jobs
    return perf_counter() - t0


def main(argv: list[str]) -> int:
    workdir = Path(argv[0])
    inputs = json.loads((workdir / "inputs.json").read_text())
    run = setup(inputs)
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0
    workload, seconds = inputs["workload"], inputs["seconds"]
    passes = Passes(run, inputs["n_jobs"], inputs["calibration"])
    results: dict = {}
    if inputs["trace"]:
        results["layers"] = run_traced(passes, seconds, workload, workdir)
        from probes import run_probes

        results["layers"].update(run_probes(inputs["probe"], cli_env()))
    else:
        run_plain(passes, seconds)
        results["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        results["children_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    results.update(
        passes=passes.passes,
        attempted=passes.attempted,
        calibrations=passes.calibrations,
        outputs=[dict(c) for c in passes.outputs],
    )
    (workdir / "results.json").write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
