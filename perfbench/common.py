"""Pieces every workload shares: seeding, set-up timing, outcome
accounting, latency percentiles, memory and host facts."""

from __future__ import annotations

import os
import random
import resource
import time
from collections import Counter
from pathlib import Path


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    """The seeded stream ``stream`` of one workload run: every master
    seed and request of a run derives from ``(workload, seed, stream)``."""
    return random.Random(f"{workload}|{seed}|{stream}")


def timed_setup(build, reps: int, min_seconds: float = 0.0):
    """Run ``build()`` at least ``reps`` times and until ``min_seconds``
    have passed; return ``(seconds of each rep, last value)``.  Each
    rep's value is released before the next rep starts."""
    times = []
    value = None
    while len(times) < reps or sum(times) < min_seconds:
        value = None
        t0 = time.perf_counter()
        value = build()
        times.append(time.perf_counter() - t0)
    return times, value


class Outcomes:
    """Each operation's outcome: ok, typed degraded, typed rejection, or
    an untyped exception recorded by its type name.  Nothing is
    retried."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def ok(self) -> None:
        self.counts["ok"] += 1

    def degraded(self, reason: str) -> None:
        self.counts[f"degraded:{reason}"] += 1

    def rejected(self, exc: BaseException) -> None:
        self.counts[f"rejected:{type(exc).__name__}"] += 1

    def error(self, exc: BaseException) -> None:
        self.counts[f"error:{type(exc).__name__}"] += 1

    def wrong(self, what: str, n: int = 1) -> None:
        """Operations that returned an answer the checks refuted."""
        self.counts["ok"] -= n
        self.counts[f"wrong:{what}"] += n

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts["ok"]

    @property
    def correct(self) -> bool:
        return not any(key.startswith("wrong:") for key in self.counts)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100)."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident MB of this process; with ``children``, plus the
    peak of its largest waited-for child (a pool worker)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def host_facts() -> dict:
    import numpy

    def cache_size(level: int) -> str | None:
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for entry in sorted(base.glob("index*")):
            try:
                if (entry / "level").read_text().strip() == str(level) and \
                        (entry / "type").read_text().strip() in ("Unified", "Data"):
                    return (entry / "size").read_text().strip()
            except OSError:
                continue
        return None

    return {
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "l2": cache_size(2),
        "l3": cache_size(3),
        "numpy": numpy.__version__,
    }
