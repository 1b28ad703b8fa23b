"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Makes the workload's inputs from the seed,
computes the expected outputs (reference.py, outside every timed region),
spawns a fresh interpreter several times to time set-up, lets the last one run
passes over the job list for S seconds (worker.py), checks every job's
output, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json (--trace 0), or its per-layer
metrics from a run whose calls into the package are wrapped in spans
(--trace 1). The line before it is the run's context. Scratch files go under
.perfbench_work/ in the checkout. Exits 2 without a result when the checkout
has no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import gen
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".perfbench_work"
# set-up is timed this many times per run, plus the job runner's own set-up
SETUP_SPAWNS = 5
WAIT_SECONDS = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def workers_for(workload: str) -> int:
    # never ask the oracle for more workers than there are cpus: the oracle
    # starts one process per requested worker
    return min(2, os.cpu_count() or 1) if workload == "scan-par" else 1


def build(workload: str, seed: int, workdir: str, trace: bool, seconds: float):
    """(inputs for the worker, check(job, output) -> bool, jobs per pass)."""
    def rng(part):
        return random.Random(f"{seed}/{part}")

    graphs = gen.scan_graphs(rng("graphs"))
    files, cli_graphs, cli_jobs = gen.cli_inputs(rng("cli"), workdir)
    inputs = {"workload": workload, "seconds": seconds, "trace": trace,
              "calibration": calibrate.KIND[workload]}
    if workload in ("scan", "scan-par"):
        jobs = gen.scan_jobs(rng("jobs"), graphs, workload == "scan-par",
                             workers_for(workload))
        used = {gi for gi, _, _ in jobs}
        known = {gi: reference.expected_values(graphs[gi]) for gi in used}
        inputs["jobs"] = jobs
        inputs["graphs"] = [{k: g[k] for k in ("family", "text") if k in g}
                            for g in graphs]

        def check(job, out):
            gi = jobs[job][0]
            return reference.check_scan(graphs[gi], known[gi], out)
    elif workload == "validate":
        jobs = gen.validate_rows(rng("rows"))
        bound = gen.VALIDATE_MAX_VERTICES
        inputs.update(rows=jobs, max_vertices=bound)
        rows = [reference.expected_row(f, s, bound) for f, s in jobs]

        def check(job, out):
            # [family, size, cordial, ced, cvd, source, match, witnesses ok]
            return out == jobs[job] + rows[job] + [True]
    else:
        jobs = cli_jobs
        inputs.update(files=sorted(files), jobs=jobs)

        def check(job, out):
            return reference.check_cli(jobs, job, cli_graphs, out)
    if workload == "cli" or trace:
        for path, text in files.items():
            (ROOT / path).write_text(text)
    if trace:
        inputs["probe"] = gen.probe_inputs(rng("probe"), graphs, cli_jobs)
    inputs["n_jobs"] = len(jobs)
    return inputs, check, len(jobs)


def run_worker(workdir: str, setup_only: bool, log) -> float:
    """Run worker.py to its end; return seconds until it printed "ready".

    The process is killed if it outlives its time, and always waited for.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), workdir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=log,
                            text=True)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        code = proc.wait(timeout=30 if setup_only else WAIT_SECONDS)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker exited {code}; see {workdir}/worker.log")
    return ready


def run_workers(workdir: str) -> tuple[list[float], list[float], dict]:
    """Timed set-up spawns, then the job runner.

    Returns (set-up seconds, slowdown around each, the runner's results).
    """
    kind = calibrate.SETUP_KIND
    setups, slowdowns = [], []
    with open(ROOT / workdir / "worker.log", "w") as log:
        for i in range(SETUP_SPAWNS + 1):
            before = calibrate.sample(kind)
            ready = run_worker(workdir, True, log)
            after = calibrate.sample(kind)
            if i:  # the first spawn only warms the file cache and bytecode
                setups.append(ready)
                slowdowns.append(calibrate.ratio([before[1], after[1]], kind))
        before = calibrate.sample(kind)
        setups.append(run_worker(workdir, False, log))
        slowdowns.append(calibrate.ratio([before[1]], kind))
    return setups, slowdowns, json.loads((ROOT / workdir / "results.json").read_text())


def count_failures(outputs: list[dict], check) -> tuple[int, int]:
    """(attempted, failed) over every job run; outputs[job] maps each distinct
    output, as JSON, to the number of times the job produced it."""
    attempted = failed = 0
    for job, seen in enumerate(outputs):
        for key, count in seen.items():
            attempted += count
            try:
                ok = check(job, json.loads(key))
            except (TypeError, ValueError, KeyError, IndexError):
                ok = False  # a malformed output fails its job
            if not ok:
                failed += count
                print(f"FAILED job {job} ({count}x): {key[:300]}", file=sys.stderr)
    return attempted, failed


def end_to_end(res: dict, setups, setup_slowdowns, workload: str) -> tuple[dict, dict]:
    """(metrics scaled to the reference speed, the same times unscaled)."""
    kind = calibrate.KIND[workload]
    walls, lat, scaled_walls, scaled_lat = [], [], [], []
    for p in res["passes"]:
        raw = [dt for _, dt in p["jobs"]]
        scaled = [dt / calibrate.slowdown(res["calibrations"], end - dt, end, kind)
                  for end, dt in p["jobs"]]
        walls.append(p["wall"])
        scaled_walls.append(p["wall"] * sum(scaled) / max(sum(raw), 1e-12))
        lat += raw
        scaled_lat += scaled

    def times(setup, wall, latency):
        return {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(wall),
            "job_p50_ms": statistics.median(latency) * 1e3,
            "job_p90_ms": statistics.quantiles(latency, n=10)[8] * 1e3,
        }

    scaled_setups = [t / f for t, f in zip(setups, setup_slowdowns)]
    values = times(scaled_setups, scaled_walls, scaled_lat)
    # the peak of the job-running process plus its largest child, counted
    # once per child that can run at the same time
    children = {"scan-par": workers_for("scan-par"), "cli": 1}.get(workload, 0)
    values["peak_rss_mb"] = (res["rss_kb"] + children * res["children_rss_kb"]) / 1024
    return values, times(setups, walls, lat)


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


def main(argv) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; have {names}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "cordial" / "__init__.py").is_file():
        print("error: no src/cordial package in this checkout", file=sys.stderr)
        return 2
    workdir = f"{WORK}/{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    (ROOT / workdir).mkdir(parents=True)

    inputs, check, jobs_per_pass = build(args.workload, args.seed, workdir,
                                         bool(args.trace), args.seconds)
    (ROOT / workdir / "inputs.json").write_text(json.dumps(inputs))
    setups, setup_slowdowns, res = run_workers(workdir)
    kind = calibrate.KIND[args.workload]

    attempted, failed = count_failures(res["outputs"], check)
    if args.trace:
        wanted, values, unscaled = spec["per_layer"], res["layers"], {}
    else:
        wanted = spec["end_to_end"]
        values, unscaled = end_to_end(res, setups, setup_slowdowns, args.workload)
        values["ok_frac"] = (attempted - failed) / attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    samples = sum(len(p["jobs"]) for p in res["passes"])

    baseline = {}
    if (HERE / "baseline.json").exists():
        recorded = json.loads((HERE / "baseline.json").read_text())
        baseline = recorded["medians"].get(args.workload, {})
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "git_commit": git_commit(), "jobs_per_pass": jobs_per_pass,
        "passes": len(res["passes"]), "job_latency_samples": samples,
        "job_p90_samples_beyond": samples - int(0.9 * samples),
        "setup_samples": len(setups), "failed_frac": failed / attempted,
        "oracle_workers": workers_for(args.workload),
        "calibration": kind, "calibration_samples": len(res["calibrations"]),
        "median_slowdown": calibrate.ratio([d for _, d in res["calibrations"]], kind),
        "unscaled": unscaled,
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]},
        "baseline_medians": baseline,
    }
    (ROOT / workdir / "result.json").write_text(
        json.dumps({"context": context, "metrics": metrics}, indent=1))
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
