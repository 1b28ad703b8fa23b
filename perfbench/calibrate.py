"""Machine-speed calibration, so that runs made at different moments compare.

On a shared machine the speed of one cpu drifts by tens of percent over tens
of seconds as other tenants come and go. Between jobs the benchmark times a
fixed chunk of interpreter work that never calls the package; a job's time
divided by the slowdown of the chunks timed around it (their median against
REFERENCE_S) is its time at the reference speed. Every end-to-end time is
reported that way; the unscaled times are kept in the run's context line.

Each workload uses the chunk whose speed tracked its own jobs best on a
loaded 2-cpu machine: the bit-mask chunk for the scan workloads, the plain
integer loop for validate, and starting an empty interpreter for cli.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

KIND = {"scan": "bits", "scan-par": "bits", "validate": "ints", "cli": "spawn"}
# set-up is a process start plus imports, so it is scaled by the spawn chunk
SETUP_KIND = "spawn"
# seconds one chunk takes at the reference speed: its median on the 2-cpu
# machine the baseline in baseline.json was recorded on
REFERENCE_S = {"bits": 0.0025, "ints": 0.0025, "spawn": 0.04}
# least seconds between two samples taken between jobs
INTERVAL_S = {"bits": 0.05, "ints": 0.05, "spawn": 0.25}
# chunks timed within this many seconds of a job count towards its slowdown
WINDOW_S = 0.3

_MASKS = [(0x5A5A5A5A >> k) | (1 << (k + 3)) for k in range(24)]


def _bits_chunk() -> None:
    """Xor incidence masks over the set bits of each labeling, then popcount:
    the shape of an exhaustive scan's inner loop (this benchmark's own copy)."""
    total = 0
    for x in range(3000):
        acc, t = 0, x
        while t:
            b = t & -t
            acc ^= _MASKS[b.bit_length() - 1]
            t ^= b
        total += acc.bit_count()


def _ints_chunk() -> None:
    """Small-int arithmetic in a plain loop: general interpreter speed."""
    total = 0
    for i in range(30000):
        total += i ^ (i >> 3)


def _spawn_chunk() -> None:
    """Start and stop an interpreter that runs nothing: process start cost."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


_CHUNKS = {"bits": _bits_chunk, "ints": _ints_chunk, "spawn": _spawn_chunk}


def sample(kind: str) -> list[float]:
    """Time one chunk now: [end time, seconds]."""
    t0 = perf_counter()
    _CHUNKS[kind]()
    t1 = perf_counter()
    return [t1, t1 - t0]


def ratio(seconds: list[float], kind: str) -> float:
    """Median chunk time over the reference: the slowdown (>1: slower)."""
    return statistics.median(seconds) / REFERENCE_S[kind]


def slowdown(samples: list[list[float]], start: float, end: float, kind: str) -> float:
    """The slowdown from the samples nearest to the interval [start, end]."""
    near = [d for t, d in samples if start - WINDOW_S <= t <= end + WINDOW_S]
    if len(near) < 3:
        by_distance = sorted(samples, key=lambda s: max(start - s[0], s[0] - end, 0.0))
        near = [d for _, d in by_distance[:3]]
    return ratio(near, kind)
