"""The solver workloads: repeated ``imm()`` / ``imm_dist()`` calls.

Each call is one answer computed from scratch.  Master seeds are drawn
from the run's seeded stream, one per call, so no two calls in a run
share an input.  The first call is an untimed warm-up.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import layers
from common import Outcomes, peak_rss_mb, percentile, rng_for, timed_setup
from tracer import Tracer

#: Set-up (the graph build) repeats at least this often and this long,
#: once before and once after the timed window, so a run's ``setup_s``
#: spans the run rather than one burst of the host's speed.
SETUP_REPS, SETUP_MIN_SECONDS = 3, 1.0

#: name -> (dataset, model, k, eps, solver keyword arguments)
CONFIGS = {
    "imm-ic-serial": ("com-Orkut", "IC", 50, 0.5,
                      {"layout": "sorted", "workers": 1}),
    "imm-lt-pool": ("soc-LiveJournal1", "LT", 200, 0.3,
                    {"layout": "compressed", "workers": 2}),
    "dist-ic-sim": ("com-Orkut", "IC", 50, 0.5,
                    {"num_nodes": 8, "rng_scheme": "per-sample"}),
}


def _solve(name, graph, model, k, eps, seed, opts):
    if name == "dist-ic-sim":
        from repro.mpi import imm_dist

        return imm_dist(graph, k, eps, model, seed=seed, **opts)
    from repro.imm import imm

    return imm(graph, k, eps, model, seed=seed, **opts)


def _check(name, graph, model, k, eps, seed, res, opts) -> str | None:
    """The workload's correctness check on one call; a description of the
    mismatch, or ``None``."""
    from repro.imm import imm

    if name == "imm-ic-serial":
        ref = imm(graph, k, eps, model, seed=seed, layout="hypergraph")
        what = "seeds vs layout=hypergraph"
    elif name == "imm-lt-pool":
        ref = imm(graph, k, eps, model, seed=seed, layout="sorted")
        if ref.theta != res.theta:
            return f"theta {res.theta} vs serial sorted {ref.theta}"
        what = "seeds vs serial sorted imm()"
    else:
        ref = imm(graph, k, eps, model, seed=seed)
        what = "seeds vs imm() at the same master seed"
    if not np.array_equal(ref.seeds, res.seeds):
        return what
    return None


def _sane(res, k) -> bool:
    seeds = np.asarray(res.seeds)
    return len(seeds) == k and len(np.unique(seeds)) == k


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.datasets import load

    dataset, model, k, eps, opts = CONFIGS[name]
    setup_times, graph = timed_setup(lambda: load(dataset, model), SETUP_REPS,
                                     SETUP_MIN_SECONDS)
    master_seeds = rng_for(name, seed, "master-seeds")

    def next_seed() -> int:
        return master_seeds.randrange(2**31)

    _solve(name, graph, model, k, eps, next_seed(), opts)  # warm-up

    outcomes = Outcomes()
    checked: list[tuple[int, object]] = []

    def window(duration, tracer=None):
        """Closed loop of solver calls for ``duration`` seconds; returns
        per-call ``(seconds, result, root span)`` of the calls that
        answered and the number of calls that raised or came back
        degraded.  With a tracer, every second call is traced (the others
        have no root span), so drift in the host's speed hits traced and
        untraced calls alike."""
        calls = []
        failed = 0
        attempts = 0
        need = 1 if tracer is None else 2
        t_end = time.perf_counter() + duration
        while time.perf_counter() < t_end or (
                len(calls) < need and attempts < need + 3):
            s = next_seed()
            traced = tracer is not None and attempts % 2 == 1
            attempts += 1
            root = None
            t0 = time.perf_counter()
            try:
                if traced:
                    layers.install(tracer)
                    try:
                        with tracer.span("solve") as root:
                            res = _solve(name, graph, model, k, eps, s, opts)
                    finally:
                        tracer.uninstall()
                else:
                    res = _solve(name, graph, model, k, eps, s, opts)
            except Exception as exc:  # counted by type, never retried
                outcomes.error(exc)
                failed += 1
                continue
            dt = time.perf_counter() - t0
            if getattr(res, "degraded", False):
                outcomes.degraded(res.degraded_reason)
                failed += 1
                continue
            if _sane(res, k):
                outcomes.ok()
            else:
                outcomes.wrong("seed set is not k distinct vertices")
            calls.append((dt, res, root))
            if not checked:
                checked.append((s, res))
        if len(calls) < need:
            raise RuntimeError(f"{failed} of {attempts} solver calls failed")
        return calls, failed

    if trace:
        tracer = Tracer()
        calls, _ = window(seconds, tracer)
        traced = [c for c in calls if c[2] is not None]
        plain = [c for c in calls if c[2] is None]
        kids = tracer.tree()
        rows = [layers.solver_call_layers(kids, root, res)
                for _, res, root in traced]
        out = {"layers": layers.medians(rows)}
        out["layers"]["trace.overhead_pct"] = 100.0 * (
            statistics.median(dt for dt, _, _ in traced)
            / statistics.median(dt for dt, _, _ in plain) - 1.0)
    else:
        t0 = time.perf_counter()
        calls, failed = window(seconds)
        elapsed = time.perf_counter() - t0
        rss = peak_rss_mb(children=name == "imm-lt-pool")
        more, _ = timed_setup(lambda: load(dataset, model), SETUP_REPS,
                              SETUP_MIN_SECONDS)
        setup_times += more
        # A failed call counts as the whole window (it missed any
        # latency limit), as a failed request does on serve-mixed.
        lat = [dt for dt, _, _ in calls] + [elapsed] * failed
        out = {"metrics": {
            "setup_s": (statistics.median(setup_times), "s"),
            "solve_s": (statistics.median(lat), "s"),
            "peak_rss_mb": (rss, "MB"),
            "query_qps": (outcomes.counts["ok"] / elapsed, "1/s"),
            # Every answer here is a fresh solve: the read and write
            # latencies are those of the solver call.
            "read_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "read_p95_ms": (1e3 * percentile(lat, 95), "ms"),
            "write_p50_ms": (1e3 * statistics.median(lat), "ms"),
        }}
    mismatch = _check(name, graph, model, k, eps, *checked[0], opts)
    if mismatch is not None:
        outcomes.wrong(mismatch)
    res0 = calls[0][1]
    out["outcomes"] = outcomes
    out["context"] = {
        "dataset": dataset, "model": model, "k": k, "eps": eps,
        "calls": len(calls), "theta": int(res0.theta),
        "rrr_working_set_bytes": int(res0.memory_bytes),
        "graph_bytes": int(graph.nbytes()),
    }
    return out
