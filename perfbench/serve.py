"""``serve-mixed``: two closed-loop clients through ``ClusterRouter(2)``.

The index is frozen (flat layout) from com-YouTube, LT, k=100,
eps=0.3, at a master seed drawn from the run's seed.  Requests come
from one seeded sequence both clients draw from:

* every 33rd request is an extension write, ``top_k(graph=...)`` at
  k=100 and the next eps of the geometric schedule
  ``EPS0 * WRITE_RATIO ** i`` (at most ``MAX_WRITES`` per run, so a run
  grows the index by a bounded, seed-determined amount);
* the others are reads in the rotation ``READ_CYCLE``: ``top_k`` over
  the (k, eps) grid the frozen prefix answers without extension (checked
  at set-up), ``what_if`` with a random forced and a random excluded
  vertex, and ``marginal_gain`` of random 10-vertex sets.

A write runs alone: it waits until no read is in flight and no program
thread is running, holds new reads back from the moment it starts
waiting, and waits for its own threads to end before reads resume
(``_WriteGate``).
``FrozenRRRIndex`` re-maps its arrays one after another at the end of
``extend``, so a read that ran beside a write could see a torn snapshot
and fail at random; the gate keeps every run's failure count fixed.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
import multiprocessing
import shutil
import statistics
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import layers
from common import Outcomes, peak_rss_mb, percentile, rng_for
from tracer import Tracer, union_seconds

DATASET, MODEL, K, EPS0 = "com-YouTube", "LT", 100, 0.3
GRID_K = (10, 25, 50, 100)
GRID_EPS = (0.3, 0.4, 0.5)
WRITE_EVERY = 33
WRITE_RATIO = 0.99
MAX_WRITES = 24
CLIENTS = 2
SETUP_REPS = 3
TRACE_WINDOWS = 8


def _read_grid(path: Path, graph) -> list[tuple[int, float]]:
    """The (k, eps) pairs the frozen prefix answers without extending."""
    from repro.serving import FrozenRRRIndex, InfluenceQueryEngine
    from repro.serving.frozen import FrozenIndexError

    grid = []
    with FrozenRRRIndex.open(path, graph=graph) as index:
        engine = InfluenceQueryEngine(index, graph, verify=False)
        for k in GRID_K:
            for eps in GRID_EPS:
                try:
                    engine.top_k(k, eps, allow_extend=False)
                except FrozenIndexError:
                    continue
                grid.append((k, eps))
    if not grid:
        raise RuntimeError("the frozen prefix answers no read-grid pair")
    return grid


#: Read kinds in a fixed rotation, so every run has the same mix; the
#: seed picks what each request asks.  The proportions (3/5 top_k, 1/5
#: what_if, 1/5 marginal_gain) are those of the synthetic traffic of
#: ``repro-imm serve`` (``repro.cli``); no measured production mix
#: exists for this system.
READ_CYCLE = ("top_k", "top_k", "top_k", "what_if", "marginal_gain")

#: ``what_if`` seats one forced vertex and bars one excluded vertex, the
#: shape of the serving example in the package README.
WHAT_IF_FORCED, WHAT_IF_EXCLUDED = 1, 1


def _shuffled(rng, items):
    """Endless passes over ``items``, each pass in a fresh seeded order."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _requests(seed: int, n: int, grid):
    """The run's request sequence: ``(kind, kwargs)`` tuples."""
    rng = rng_for("serve-mixed", seed, "requests")
    grid_pairs = _shuffled(rng, grid)
    what_if_k = _shuffled(rng, GRID_K)
    writes = reads = 0
    j = 0
    while True:
        j += 1
        if j % WRITE_EVERY == 0 and writes < MAX_WRITES:
            writes += 1
            yield "write", {"k": K, "eps": EPS0 * WRITE_RATIO ** writes}
            continue
        kind = READ_CYCLE[reads % len(READ_CYCLE)]
        reads += 1
        if kind == "top_k":
            k, eps = next(grid_pairs)
            yield kind, {"k": k, "eps": eps}
        elif kind == "what_if":
            picks = rng.sample(range(n), WHAT_IF_FORCED + WHAT_IF_EXCLUDED)
            yield kind, {"k": next(what_if_k), "forced": picks[:WHAT_IF_FORCED],
                         "excluded": picks[WHAT_IF_FORCED:]}
        else:
            yield kind, {"seed_set": rng.sample(range(n), 10)}


class _CountingExecutor(ThreadPoolExecutor):
    """The event loop's default executor, which runs every thread the
    serving code starts (``asyncio.to_thread``), counting those not yet
    done — hedge losers and timed-out extensions included."""

    def __init__(self) -> None:
        super().__init__(thread_name_prefix="serve-mixed")
        self._count_lock = threading.Lock()
        self.running = 0

    def submit(self, fn, /, *args, **kwargs):
        with self._count_lock:
            self.running += 1
        try:
            fut = super().submit(fn, *args, **kwargs)
        except BaseException:
            self._done(None)
            raise
        fut.add_done_callback(self._done)
        return fut

    def _done(self, _fut) -> None:
        with self._count_lock:
            self.running -= 1


class _WriteGate:
    """Reads run side by side; a write runs with no read in flight and
    no program thread running, before or after it.  A waiting write
    holds new reads back, or the other client's back-to-back reads
    would keep it waiting until that client drew a write too."""

    def __init__(self, executor: _CountingExecutor) -> None:
        self._executor = executor
        self._cond = asyncio.Condition()
        self._reads = 0
        self._writes_waiting = 0
        self._writing = False

    async def _idle(self) -> None:
        while self._executor.running:
            await asyncio.sleep(0.001)

    @contextlib.asynccontextmanager
    async def read(self):
        async with self._cond:
            await self._cond.wait_for(
                lambda: not self._writing and not self._writes_waiting)
            self._reads += 1
        try:
            yield
        finally:
            async with self._cond:
                self._reads -= 1
                self._cond.notify_all()

    @contextlib.asynccontextmanager
    async def write(self):
        async with self._cond:
            self._writes_waiting += 1
            try:
                await self._cond.wait_for(
                    lambda: not self._writing and self._reads == 0)
            finally:
                self._writes_waiting -= 1
            self._writing = True
        try:
            await self._idle()
            yield
            await self._idle()
        finally:
            async with self._cond:
                self._writing = False
                self._cond.notify_all()


async def _client(router, path, graph, seq, t_end, outcomes, log, tracer, gate):
    while time.perf_counter() < t_end:
        kind, kw = next(seq)
        async with gate.write() if kind == "write" else gate.read():
            await _request(router, path, graph, kind, kw, outcomes, log, tracer)


async def _request(router, path, graph, kind, kw, outcomes, log, tracer):
    """One request, timed from its dispatch to its answer; the gate's
    wait before it is not part of its latency."""
    from repro.serving import ServingFrontendError

    root = None
    t0 = time.perf_counter()
    try:
        if kind == "write":
            call = router.top_k(path, kw["k"], kw["eps"], graph=graph)
        elif kind == "top_k":
            call = router.top_k(path, kw["k"], kw["eps"])
        elif kind == "what_if":
            call = router.what_if(path, kw["k"], forced=kw["forced"],
                                  excluded=kw["excluded"])
        else:
            call = router.marginal_gain(path, kw["seed_set"])
        if tracer is not None:
            with tracer.span(f"request.{kind}") as root:
                res = await call
        else:
            res = await call
    except ServingFrontendError as exc:
        outcomes.rejected(exc)
        log.append((kind, time.perf_counter() - t0, "failed", kw, None))
        return
    except Exception as exc:  # untyped: counted by type, never retried
        outcomes.error(exc)
        log.append((kind, time.perf_counter() - t0, "failed", kw, None))
        return
    dt = time.perf_counter() - t0
    if getattr(res, "degraded", False):
        outcomes.degraded(res.degraded_reason)
        log.append((kind, dt, "failed", kw, root))
        return
    outcomes.ok()
    log.append((kind, dt, "ok", kw, (root, res)))


async def _window(router, path, graph, seq, seconds, outcomes, gate, tracer=None):
    log: list[tuple] = []  # (kind, seconds, status, request, (root, result))
    if tracer is not None:
        layers.install(tracer)
    try:
        t0 = time.perf_counter()
        t_end = t0 + seconds
        await asyncio.gather(*(
            _client(router, path, graph, seq, t_end, outcomes, log, tracer, gate)
            for _ in range(CLIENTS)
        ))
        elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return log, elapsed


def _latencies(rows, kinds, penalty):
    """Latencies of the given request kinds; a failed request counts as
    the whole window (it missed any latency limit)."""
    return [dt if status == "ok" else penalty
            for kind, dt, status, _, _ in rows if kind in kinds]


READS = ("top_k", "what_if", "marginal_gain")


_CHECK_GRAPH = None


def _init_checker() -> None:
    global _CHECK_GRAPH
    from repro.datasets import load

    _CHECK_GRAPH = load(DATASET, MODEL)


def _fresh_seeds(k: int, eps: float, seed: int) -> tuple:
    from repro.imm import imm

    return tuple(int(v) for v in imm(_CHECK_GRAPH, k, eps, MODEL, seed=seed).seeds)


def _check_answers(rows, seed, outcomes) -> dict:
    """Every distinct top_k answer must equal a fresh imm() at its
    (k, eps); a mismatch fails every request that returned it.  The
    fresh runs are spread over ``CLIENTS`` worker processes."""
    answers: dict[tuple[int, float], list[tuple]] = {}
    for kind, _, status, kw, payload in rows:
        if kind in ("top_k", "write") and status == "ok":
            res = payload[1]
            answers.setdefault((kw["k"], kw["eps"]), []).append(
                tuple(int(v) for v in res.seeds))
    keys = sorted(answers)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(CLIENTS, mp_context=ctx,
                             initializer=_init_checker) as pool:
        refs = list(pool.map(_fresh_seeds, [k for k, _ in keys],
                             [e for _, e in keys], [seed] * len(keys)))
    for (k, eps), ref in zip(keys, refs):
        bad = sum(1 for seeds in answers[(k, eps)] if seeds != ref)
        if bad:
            outcomes.wrong(f"top_k(k={k}, eps={eps:.4f}) vs fresh imm()", bad)
    for kind, _, status, kw, payload in rows:
        if kind == "what_if" and status == "ok":
            seeds = [int(v) for v in payload[1].seeds]
            if (len(seeds) != kw["k"] or seeds[: len(kw["forced"])] != kw["forced"]
                    or set(seeds) & set(kw["excluded"])):
                outcomes.wrong("what_if ignores its forced/excluded sets")
    return {"distinct_top_k_answers": len(keys)}


def _overhead_pct(traced, plain) -> float:
    """Traced over untraced read latency, minus one, in percent: the
    median of each read kind compared with its own kind, the ratios
    averaged geometrically by the kind's share of requests.  The kinds'
    latencies differ tenfold, so one median over all reads would move
    with each window's mix rather than with the tracing."""
    logs = weight = 0.0
    for kind in READS:
        t = [dt for k, dt, st, _, _ in traced if k == kind and st == "ok"]
        u = [dt for k, dt, st, _, _ in plain if k == kind and st == "ok"]
        if t and u:
            logs += (len(t) + len(u)) * math.log(
                statistics.median(t) / statistics.median(u))
            weight += len(t) + len(u)
    return 100.0 * (math.exp(logs / weight) - 1.0)


def _serve_layers(tracer: Tracer, rows, overhead_pct: float) -> dict:
    kids = tracer.tree()
    below = Tracer.descendants
    reads, writes = [], []
    for kind, _, status, _, payload in rows:
        if status != "ok" or payload is None or payload[0] is None:
            continue
        (writes if kind == "write" else reads).append(payload)

    def med(xs):
        return statistics.median(xs) if xs else 0.0

    router_self, front_self, coverage = [], [], []
    engine_ms = {op: [] for op in READS}
    for root, _ in reads:
        for router_span in kids.get(root.id, ()):
            fronts = below(kids, router_span, "serving.frontend")
            engines = [e for f in fronts for e in kids.get(f.id, ())
                       if e.name.startswith("serving.engine.")]
            covered = union_seconds(fronts)
            router_self.append(1e3 * (router_span.seconds - covered))
            front_self.append(1e3 * (covered - union_seconds(engines)))
            coverage.append(100.0 * covered / router_span.seconds)
            for e in engines:
                engine_ms[e.name.rsplit(".", 1)[1]].append(1e3 * e.seconds)
    cohort_s, edges, samples, appends = [], [], [], []
    cohort_edges = cohort_total = 0.0
    for root, res in writes:
        cohort_s.append(union_seconds(below(kids, root, "sampling.cohort")))
        edges.append(int(res.edges_examined))
        samples.append(int(res.samples_added))
        appends.append(union_seconds(below(kids, root, "sampling.append")))
        cohort_edges += edges[-1]
        cohort_total += cohort_s[-1]
    extends = [s.seconds for s in tracer.spans if s.name == "serving.extend"]
    return {
        "sampling.cohort_s": med(cohort_s),
        "sampling.cohort_edges_per_s": cohort_edges / cohort_total if cohort_total else 0.0,
        "sampling.edges_examined": med(edges),
        "sampling.samples": med(samples),
        "sampling.append_s": med(appends),
        "serving.router_self_ms": med(router_self),
        "serving.frontend_self_ms": med(front_self),
        "serving.engine.top_k_ms": med(engine_ms["top_k"]),
        "serving.engine.what_if_ms": med(engine_ms["what_if"]),
        "serving.engine.marginal_ms": med(engine_ms["marginal_gain"]),
        "serving.extend_s": med(extends),
        "serving.samples_added": sum(int(res.samples_added) for _, res in writes),
        "trace.coverage_pct": med(coverage),
        "trace.overhead_pct": overhead_pct,
    }


async def _run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from repro.datasets import load
    from repro.serving import ClusterRouter, FrozenRRRIndex, freeze_index

    master = rng_for("serve-mixed", seed, "master-seed").randrange(2**31)
    executor = _CountingExecutor()
    asyncio.get_running_loop().set_default_executor(executor)
    gate = _WriteGate(executor)

    setup_times = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        graph = load(DATASET, MODEL)
        path = (work / f"index-{rep}").resolve()
        freeze_index(graph, K, EPS0, MODEL, seed=master, out_dir=path)
        router = ClusterRouter(CLIENTS)
        await router.probe(path)  # warm-up: every replica maps the index
        setup_times.append(time.perf_counter() - t0)
        if rep < SETUP_REPS - 1:
            await router.close()
            shutil.rmtree(path)
    setup_s = statistics.median(setup_times)

    grid = _read_grid(path, graph)
    seq = _requests(seed, graph.n, grid)
    outcomes = Outcomes()
    stats0 = _wasted(router)
    try:
        if trace:
            tracer = Tracer()
            logs = []
            for i in range(TRACE_WINDOWS):  # untraced and traced alternate
                log, _ = await _window(router, path, graph, seq,
                                       seconds / TRACE_WINDOWS, outcomes,
                                       gate, tracer if i % 2 else None)
                logs.append(log)
            rows = [r for log in logs for r in log]
            plain = [r for log in logs[0::2] for r in log]
            traced = [r for log in logs[1::2] for r in log]
            values = _serve_layers(tracer, traced, _overhead_pct(traced, plain))
        else:
            rows, elapsed = await _window(router, path, graph, seq, seconds,
                                          outcomes, gate)
    finally:
        await router.close()
    stats1 = _wasted(router)
    wasted = {key: stats1[key] - stats0[key] for key in stats0}
    with FrozenRRRIndex.open(path) as index:
        rrr_bytes = sum(int(a.nbytes) for a in index.arrays())
        num_samples = index.num_samples
    checks = _check_answers(rows, master, outcomes)

    out: dict = {"outcomes": outcomes}
    if trace:
        values.update({f"serving.{k}": v for k, v in wasted.items()})
        values["sampling.rrr_bytes"] = rrr_bytes
        out["layers"] = values
    else:
        reads = _latencies(rows, READS, elapsed)
        writes = _latencies(rows, ("write",), elapsed)
        out["metrics"] = {
            "setup_s": (setup_s, "s"),
            # The serving tier samples and selects only in writes; the
            # freeze is one solve per set-up rep and shows in setup_s.
            "solve_s": (percentile(writes, 50), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "query_qps": (outcomes.counts["ok"] / elapsed, "1/s"),
            "read_p50_ms": (1e3 * percentile(reads, 50), "ms"),
            "read_p95_ms": (1e3 * percentile(reads, 95), "ms"),
            "write_p50_ms": (1e3 * percentile(writes, 50), "ms"),
        }
    kinds = {}
    for kind, *_ in rows:
        kinds[kind] = kinds.get(kind, 0) + 1
    out["context"] = {
        "dataset": DATASET, "model": MODEL, "k": K, "eps": EPS0,
        "master_seed": master, "read_grid": grid, "requests": kinds,
        "index_samples_at_end": num_samples,
        "rrr_working_set_bytes": rrr_bytes, **checks,
    }
    return out


def _wasted(router) -> dict:
    fronts = router.frontends()
    return {
        "hedges": router.stats.hedges,
        "coalesced": sum(f.stats.coalesced for f in fronts),
        "rejected": sum(f.stats.rejected for f in fronts),
        "cache_misses": sum(f.cache.misses for f in fronts),
    }


def run(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    return asyncio.run(_run(seed, seconds, trace, work))
