"""Which public calls the traced run wraps, and the per-layer numbers
derived from the recorded spans.

Layers are the package's modules.  ``repro.datasets`` and
``repro.graph`` run only in set-up (timed by ``setup_s``);
``repro.rng`` mixes inside ``BatchedRRRSampler.sample_cohort`` and is
not split out; ``repro.parallel`` and ``repro.diffusion`` are not on a
timed path.
"""

from __future__ import annotations

import importlib
import statistics

from tracer import Tracer, union_seconds


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    # ``repro.imm`` re-exports the function ``imm``, which shadows the
    # submodule of the same name as a package attribute.
    imm_mod = importlib.import_module("repro.imm.imm")
    theta_mod = importlib.import_module("repro.imm.theta")
    dist_mod = importlib.import_module("repro.mpi.distributed")
    from repro.sampling import (
        BatchedRRRSampler,
        CompressedRRRCollection,
        HypergraphRRRCollection,
        ParallelSamplingEngine,
        SortedRRRCollection,
    )
    from repro.serving import (
        ClusterRouter,
        FrozenRRRIndex,
        InfluenceQueryEngine,
        ServingFrontend,
    )

    tracer.wrap(imm_mod, "estimate_theta", "imm.estimate_theta")
    for mod in (imm_mod, theta_mod):
        tracer.wrap(mod, "sample_batch", "sampling.sample_batch")
        tracer.wrap(mod, "select_seeds", "imm.select_seeds")
    tracer.wrap(imm_mod, "build_sampling_engine", "sampling.pool_setup")
    tracer.wrap(ParallelSamplingEngine, "close", "sampling.pool_setup")
    tracer.wrap(ParallelSamplingEngine, "sample_into", "sampling.pool_sample")
    tracer.wrap(BatchedRRRSampler, "sample_cohort", "sampling.cohort")
    for cls in (SortedRRRCollection, HypergraphRRRCollection, CompressedRRRCollection):
        tracer.wrap(cls, "append_batch", "sampling.append")
    tracer.wrap(CompressedRRRCollection, "parse_stream", "sampling.compressed_parse")
    tracer.wrap(dist_mod, "run_spmd", "mpi.run_spmd")
    for op in ("top_k", "what_if", "marginal_gain"):
        tracer.wrap(ClusterRouter, op, "serving.router")
        tracer.wrap(ServingFrontend, op, "serving.frontend")
        tracer.wrap(InfluenceQueryEngine, op, f"serving.engine.{op}")
    tracer.wrap(FrozenRRRIndex, "extend", "serving.extend")


#: Every per-layer metric, with its unit, in the order it is printed.
PER_LAYER = {
    "sampling.cohort_s": "s",
    "sampling.cohort_edges_per_s": "1/s",
    "sampling.edges_examined": "count",
    "sampling.samples": "count",
    "sampling.append_s": "s",
    "sampling.compressed_parse_s": "s",
    "sampling.rrr_bytes": "count",
    "sampling.pool_setup_s": "s",
    "sampling.pool_sample_s": "s",
    "sampling.pool.landing_s": "s",
    "sampling.pool.blocks_landed": "count",
    "sampling.pool.ipc_descriptor_bytes": "count",
    "sampling.pool.arena_overflows": "count",
    "sampling.pool.count_fallbacks": "count",
    "imm.select_s": "s",
    "imm.select_calls": "count",
    "imm.select_entries": "count",
    "imm.select_entries_per_s": "1/s",
    "imm.theta_self_s": "s",
    "imm.rounds": "count",
    "mpi.spmd_s": "s",
    "mpi.self_s": "s",
    "mpi.comm_calls": "count",
    "mpi.comm_bytes": "count",
    "serving.router_self_ms": "ms",
    "serving.frontend_self_ms": "ms",
    "serving.engine.top_k_ms": "ms",
    "serving.engine.what_if_ms": "ms",
    "serving.engine.marginal_ms": "ms",
    "serving.extend_s": "s",
    "serving.samples_added": "count",
    "serving.hedges": "count",
    "serving.coalesced": "count",
    "serving.rejected": "count",
    "serving.cache_misses": "count",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def solver_call_layers(kids: dict, root, result) -> dict:
    """Per-layer numbers of one traced solver call (``root`` is the span
    the benchmark opened around ``imm()`` / ``imm_dist()``).  Spans give
    the times; the work counts come from the result's ``counters``."""
    below = Tracer.descendants
    cohorts = below(kids, root, "sampling.cohort")
    selects = below(kids, root, "imm.select_seeds")
    thetas = below(kids, root, "imm.estimate_theta")
    spmds = below(kids, root, "mpi.run_spmd")
    cohort_s = union_seconds(cohorts)
    select_s = union_seconds(selects)
    counters = result.counters
    entries = counters.entries_scanned
    theta_self = sum(
        t.seconds - union_seconds(kids.get(t.id, ())) for t in thetas
    )
    spmd_s = union_seconds(spmds)
    mpi_cohort = sum(union_seconds(below(kids, s, "sampling.cohort")) for s in spmds)
    engine = result.extra.get("engine") or {}
    out = {
        "sampling.cohort_s": cohort_s,
        # Zero where every cohort ran in pool workers (no parent spans).
        "sampling.cohort_edges_per_s": _ratio(counters.edges_examined, cohort_s),
        "sampling.edges_examined": counters.edges_examined,
        "sampling.samples": counters.samples_generated,
        "sampling.append_s": union_seconds(below(kids, root, "sampling.append")),
        "sampling.compressed_parse_s": union_seconds(
            below(kids, root, "sampling.compressed_parse")),
        "sampling.rrr_bytes": int(result.memory_bytes),
        "sampling.pool_setup_s": sum(
            s.seconds for s in below(kids, root, "sampling.pool_setup")),
        "sampling.pool_sample_s": union_seconds(below(kids, root, "sampling.pool_sample")),
        "sampling.pool.landing_s": float(engine.get("landing_seconds", 0.0)),
        "sampling.pool.blocks_landed": int(engine.get("blocks_landed", 0)),
        "sampling.pool.ipc_descriptor_bytes": int(engine.get("ipc_descriptor_bytes", 0)),
        "sampling.pool.arena_overflows": int(engine.get("arena_overflows", 0)),
        "sampling.pool.count_fallbacks": int(engine.get("count_fallbacks", 0)),
        "imm.select_s": select_s,
        "imm.select_calls": len(selects),
        "imm.select_entries": entries,
        "imm.select_entries_per_s": _ratio(entries, select_s),
        "imm.theta_self_s": theta_self,
        "imm.rounds": int(result.extra.get("estimation_rounds") or 0),
        "mpi.spmd_s": spmd_s,
        "mpi.self_s": spmd_s - mpi_cohort,
        "mpi.comm_calls": int(result.extra.get("comm_calls", 0)),
        "mpi.comm_bytes": int(result.extra.get("comm_bytes", 0)),
        "trace.coverage_pct": 100.0 * _ratio(
            union_seconds(kids.get(root.id, ())), root.seconds),
    }
    return out


def medians(rows: list[dict]) -> dict:
    """Metric-wise median over per-call rows (counts stay whole)."""
    return {
        key: (statistics.median_low if PER_LAYER[key] == "count" else statistics.median)(
            [r[key] for r in rows])
        for key in rows[0]
    }


def finish(values: dict) -> dict:
    """Every per-layer metric with its unit; layers a workload does not
    run read 0."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in PER_LAYER.items()
    }
