"""Disk-backed block checkpointing for the process-pool sampling engine.

The determinism contract makes sampling checkpoints almost free to
*describe* — sample ``j`` is a pure function of ``(graph, model, seed,
j)`` — but re-deriving a million landed samples after a process kill
still costs the full sampling time.  This sink therefore spills the
landed prefix itself, so a restarted run reloads bytes instead of
re-traversing the graph:

``run_dir/``
    ``MANIFEST.json``
        Format version plus the run identity ``(n, model, seed)``; a
        checkpoint is only valid against the job that wrote it.
    ``cursor.json``
        The landed-block cursor: how many samples (and flat entries)
        are durably on disk, plus the XOR-folded stream checksum of the
        landed index range (the same fingerprint the engine's worker
        handshake uses).  Written atomically (tmp + fsync + rename) so
        a kill mid-write leaves the previous cursor intact.
    ``flat.i32.bin`` / ``sizes.i64.bin`` / ``edges.i64.bin``
        The spilled collection: append-only raw buffers holding the
        flattened vertex lists, per-sample sizes, and per-sample
        examined-edge meters.  Appends are fsync'd *before* the cursor
        moves, so the cursor never points past durable data; a torn
        tail beyond the cursor is simply ignored on resume.

Every write follows write-ahead discipline (data, fsync, cursor,
fsync), which is what makes ``resume_from=`` safe against SIGKILL at
any instant: the reloaded prefix is exactly the samples the cursor
certifies, bit-identical to what a fault-free run would have produced
for the same indices.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from ..rng.streams import stream_seeds_array

__all__ = ["BlockCheckpointSink", "CheckpointError", "FORMAT_VERSION"]

FORMAT_VERSION = 1
_MANIFEST = "MANIFEST.json"
_CURSOR = "cursor.json"
_FLAT = "flat.i32.bin"
_SIZES = "sizes.i64.bin"
_EDGES = "edges.i64.bin"
_GAMMA = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1


class CheckpointError(RuntimeError):
    """A checkpoint directory is unreadable, torn beyond repair, or
    belongs to a different job."""


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fold(seed: int, indices: np.ndarray) -> int:
    """XOR-fold of the per-sample stream seeds (no length mixing).

    The associative/commutative core of
    :func:`repro.rng.streams.stream_checksum`, kept incremental here so
    the cursor update is O(block) instead of O(landed).
    """
    seeds = stream_seeds_array(seed, indices)
    return int(np.bitwise_xor.reduce(seeds)) if len(seeds) else 0


class BlockCheckpointSink:
    """Append-only spill of landed sample blocks under one run directory.

    Opening a directory that already holds a valid manifest *continues*
    it (the resume path); an empty or missing directory is initialized
    fresh.  The identity triple ``(n, model, seed)`` must match on
    continuation — everything the spilled bytes mean depends on it.
    """

    def __init__(
        self,
        run_dir: str | Path,
        *,
        n: int,
        model: str,
        seed: int,
        readonly: bool = False,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.n = int(n)
        self.model = str(model)
        self.seed = int(seed)
        self.readonly = readonly
        self._closed = False
        self._files: dict[str, object] = {}
        self.landed = 0
        self.entries = 0
        self._folded = 0
        #: wall seconds spent inside durable writes (fsync included).
        self.write_seconds = 0.0
        self.bytes_written = 0

        manifest_path = self.run_dir / _MANIFEST
        if manifest_path.exists():
            self._load_existing(manifest_path)
        elif readonly:
            raise CheckpointError(f"no checkpoint manifest under {self.run_dir}")
        else:
            self._init_fresh()
        if not readonly:
            self._open_appenders()

    # -- construction ------------------------------------------------------

    def _init_fresh(self) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": "repro-block-checkpoint",
            "version": FORMAT_VERSION,
            "n": self.n,
            "model": self.model,
            "seed": self.seed,
            "created_unix": time.time(),
        }
        self._write_atomic(_MANIFEST, json.dumps(manifest, indent=2))
        for name in (_FLAT, _SIZES, _EDGES):
            (self.run_dir / name).touch()
        self._write_cursor()

    def _load_existing(self, manifest_path: Path) -> None:
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable manifest {manifest_path}: {exc}") from exc
        if manifest.get("format") != "repro-block-checkpoint":
            raise CheckpointError(f"{manifest_path} is not a block checkpoint")
        if manifest.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format v{manifest.get('version')} != "
                f"supported v{FORMAT_VERSION}"
            )
        identity = {
            "n": (manifest.get("n"), self.n),
            "model": (manifest.get("model"), self.model),
            "seed": (manifest.get("seed"), self.seed),
        }
        mismatched = {k: v for k, v in identity.items() if v[0] != v[1]}
        if mismatched:
            detail = ", ".join(
                f"{k}: checkpoint={a!r} vs job={b!r}"
                for k, (a, b) in sorted(mismatched.items())
            )
            raise CheckpointError(f"checkpoint belongs to a different job ({detail})")
        cursor_path = self.run_dir / _CURSOR
        if not cursor_path.exists():
            raise CheckpointError(f"checkpoint has no cursor file: {cursor_path}")
        try:
            cursor = json.loads(cursor_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable cursor {cursor_path}: {exc}") from exc
        self.landed = int(cursor["landed"])
        self.entries = int(cursor["entries"])
        expected = _fold(self.seed, np.arange(self.landed, dtype=np.int64))
        if int(cursor["stream_fold"]) != expected:
            raise CheckpointError(
                "cursor stream fingerprint disagrees with the landed range — "
                "the checkpoint was written with a different seed or indices"
            )
        self._folded = expected
        # Durable byte floors the data files must reach (torn tails beyond
        # them are fine — the cursor never certified those bytes).
        for name, need in ((_FLAT, self.entries * 4), (_SIZES, self.landed * 8),
                           (_EDGES, self.landed * 8)):
            have = (self.run_dir / name).stat().st_size if (self.run_dir / name).exists() else -1
            if have < need:
                raise CheckpointError(
                    f"{name} holds {have} bytes, cursor certifies {need} — "
                    "checkpoint is torn below its own cursor"
                )

    def _open_appenders(self) -> None:
        for name in (_FLAT, _SIZES, _EDGES):
            path = self.run_dir / name
            fh = open(path, "r+b")
            # Truncate any torn tail so appends continue from certified bytes.
            need = {
                _FLAT: self.entries * 4,
                _SIZES: self.landed * 8,
                _EDGES: self.landed * 8,
            }[name]
            fh.truncate(need)
            fh.seek(need)
            self._files[name] = fh

    # -- durable writes ----------------------------------------------------

    def _write_atomic(self, name: str, text: str) -> None:
        tmp = self.run_dir / (name + ".tmp")
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.run_dir / name)
        _fsync_dir(self.run_dir)

    def _write_cursor(self) -> None:
        self._write_atomic(
            _CURSOR,
            json.dumps(
                {
                    "landed": self.landed,
                    "entries": self.entries,
                    "stream_fold": self._folded,
                }
            ),
        )

    def append_block(
        self,
        indices: np.ndarray,
        flat: np.ndarray,
        sizes: np.ndarray,
        edges: np.ndarray,
    ) -> None:
        """Durably spill one landed block and advance the cursor.

        ``indices`` are the global sample indices the block covers; they
        must extend the landed prefix contiguously (the engine lands
        blocks in index order, so this is the natural call pattern).
        """
        if self.readonly or self._closed:
            raise CheckpointError("sink is closed or read-only")
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) == 0:
            return
        if int(indices[0]) != self.landed:
            raise CheckpointError(
                f"non-contiguous spill: block starts at {int(indices[0])}, "
                f"cursor is at {self.landed}"
            )
        t0 = time.perf_counter()
        payloads = (
            (_FLAT, np.ascontiguousarray(flat, dtype=np.int32)),
            (_SIZES, np.ascontiguousarray(sizes, dtype=np.int64)),
            (_EDGES, np.ascontiguousarray(edges, dtype=np.int64)),
        )
        for name, arr in payloads:
            fh = self._files[name]
            fh.write(arr.tobytes())
            fh.flush()
            os.fsync(fh.fileno())
            self.bytes_written += arr.nbytes
        self.landed += len(indices)
        self.entries += int(len(flat))
        self._folded ^= _fold(self.seed, indices)
        self._write_cursor()
        self.write_seconds += time.perf_counter() - t0

    # -- resume reads ------------------------------------------------------

    def load_range(
        self, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reload the spilled samples with global indices ``[lo, hi)``.

        Returns ``(flat, sizes, edges)`` exactly as the workers produced
        them; ``hi`` must not exceed the certified cursor.
        """
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= self.landed:
            raise CheckpointError(
                f"requested [{lo}, {hi}) outside the certified prefix "
                f"[0, {self.landed})"
            )
        sizes_all = np.fromfile(
            self.run_dir / _SIZES, dtype=np.int64, count=self.landed
        )
        if len(sizes_all) != self.landed:
            raise CheckpointError(
                f"{_SIZES} short read: got {len(sizes_all)} of "
                f"{self.landed} certified sample sizes"
            )
        offsets = np.zeros(self.landed + 1, dtype=np.int64)
        np.cumsum(sizes_all, out=offsets[1:])
        # A bare fh.read(n) may legally return fewer than n bytes, and
        # np.frombuffer would then silently hand back a truncated array
        # that corrupts the resumed prefix; np.fromfile with count= plus
        # an explicit element-count check turns the same condition into a
        # hard CheckpointError.
        want_flat = int(offsets[hi] - offsets[lo])
        with open(self.run_dir / _FLAT, "rb") as fh:
            fh.seek(int(offsets[lo]) * 4)
            flat = np.fromfile(fh, dtype=np.int32, count=want_flat)
        if len(flat) != want_flat:
            raise CheckpointError(
                f"{_FLAT} short read: got {len(flat)} of {want_flat} "
                f"entries for samples [{lo}, {hi}) — the spill is torn "
                "below its own cursor"
            )
        with open(self.run_dir / _EDGES, "rb") as fh:
            fh.seek(lo * 8)
            edges = np.fromfile(fh, dtype=np.int64, count=hi - lo)
        if len(edges) != hi - lo:
            raise CheckpointError(
                f"{_EDGES} short read: got {len(edges)} of {hi - lo} "
                f"edge meters for samples [{lo}, {hi})"
            )
        return flat, sizes_all[lo:hi].copy(), edges

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Flush, fsync, and drop temporaries (idempotent).

        The run directory itself survives — it is the resume vehicle;
        only in-flight temporaries are cleaned away.
        """
        if self._closed:
            return
        self._closed = True
        for fh in self._files.values():
            try:
                fh.flush()
                os.fsync(fh.fileno())
                fh.close()
            except OSError:  # pragma: no cover - best-effort teardown
                pass
        self._files = {}
        removed = False
        for name in (_MANIFEST, _CURSOR):
            tmp = self.run_dir / (name + ".tmp")
            if tmp.exists():
                tmp.unlink()
                removed = True
        if removed:
            # The unlink itself is a directory mutation: without a
            # directory fsync a crash right after close() can resurrect
            # the stale .tmp next to the real file on some filesystems.
            try:
                _fsync_dir(self.run_dir)
            except OSError:  # pragma: no cover - best-effort teardown
                pass

    def __enter__(self) -> "BlockCheckpointSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
