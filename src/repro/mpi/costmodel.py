"""α–β (latency–bandwidth) pricing of the collectives.

The standard LogP-family model for a tree-structured collective over
``p`` ranks moving ``nbytes`` per rank:

    T = ceil(log2 p) · (α + β · nbytes)

This is the model underlying the paper's ``O(k · n · lg p)``
communication complexity for the distributed seed selection (one
All-Reduce of the ``n`` counters per greedy iteration), so pricing the
recorded traffic with it reproduces the communication component of
Figures 7–8 by construction.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from ..parallel.machine import MachineSpec

if TYPE_CHECKING:
    from .comm import CommCall

__all__ = [
    "allreduce_seconds",
    "collective_seconds",
    "comm_seconds_by_label",
    "checkpoint_seconds",
]


def allreduce_seconds(machine: MachineSpec, num_ranks: int, nbytes: int) -> float:
    """Modeled seconds for one allreduce of ``nbytes`` per rank."""
    return collective_seconds(machine, num_ranks, nbytes)


def collective_seconds(machine: MachineSpec, num_ranks: int, nbytes: int) -> float:
    """Tree-collective time: ``ceil(lg p) * (alpha + beta * nbytes)``.

    ``num_ranks == 1`` costs nothing (the single-rank code path skips
    communication entirely, as MPI implementations do).
    """
    if num_ranks < 1:
        raise ValueError("need at least one rank")
    if nbytes < 0:
        raise ValueError("payload size must be non-negative")
    if num_ranks == 1:
        return 0.0
    hops = math.ceil(math.log2(num_ranks))
    return hops * (machine.alpha + machine.beta * nbytes)


def checkpoint_seconds(machine: MachineSpec, nbytes: int) -> float:
    """Modeled seconds for one durable checkpoint write of ``nbytes``.

    The same α–β shape as a collective, but against stable storage:
    ``disk_alpha`` is the fixed fsync/commit latency, ``disk_beta`` the
    per-byte streaming cost.  Cursor-only distributed checkpoints are a
    few hundred bytes (latency-dominated); the pool engine's
    block-spill checkpoints stream the collection itself
    (bandwidth-dominated) — one formula prices both regimes.
    """
    if nbytes < 0:
        raise ValueError("payload size must be non-negative")
    return machine.disk_alpha + machine.disk_beta * nbytes


def comm_seconds_by_label(
    machine: MachineSpec, num_ranks: int, per_call: Iterable["CommCall"]
) -> dict[str, float]:
    """Price a :class:`~repro.mpi.comm.CommStats` ledger per label.

    Labels separate phase traffic (``"EstimateTheta"``, …) from the
    recovery traffic the resilient runtime marks ``"retry"`` /
    ``"replay"`` — so the cost of fault handling is visible instead of
    smeared across the phases it interrupted.
    """
    totals: dict[str, float] = {}
    for call in per_call:
        totals[call.label] = totals.get(call.label, 0.0) + collective_seconds(
            machine, num_ranks, call.nbytes
        )
    return totals
