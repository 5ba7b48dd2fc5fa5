"""Content-addressed on-disk cache for shared sweep artifacts.

The dominant repeated cost of a testcase × flow sweep is
``prepare_initial_placement`` — every flow of a testcase starts from the
same Flow-(1) artifact, and across sweep jobs (and repeated sweeps) that
artifact is recomputed identically.  This cache keys the pickled
:class:`~repro.core.flows.InitialPlacement` by a content hash over
everything that determines it:

* the testcase spec (circuit, clock, paper cell count, minority %),
* the :class:`~repro.core.config.RunConfig` facets that shape the initial
  placement (scale, seed, utilization, aspect ratio, resolved height
  spec),
* a fingerprint of the cell library, and
* the package version plus a cache schema version.

Entries are written atomically (temp file + ``os.replace``) so concurrent
sweep workers can race on the same key safely: the worst case is the work
being done twice, never a torn read.  A corrupted or unreadable entry is
deleted and recomputed — the cache can only ever cost a recompute, not an
answer.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro import __version__
from repro.core.config import RunConfig
from repro.core.flows import InitialPlacement, prepare_initial_placement
from repro.experiments.testcases import TestcaseSpec, build_testcase
from repro.obs.events import emit_event
from repro.obs.trace import span
from repro.techlib.cells import StdCellLibrary

#: Bump when the pickled artifact layout changes incompatibly.
CACHE_SCHEMA_VERSION = 1

#: Default cache location (override per sweep with ``cache_dir``).
DEFAULT_CACHE_DIR = ".repro_cache"

#: Magic prefix of the protocol-5 entry format: a sized JSON header
#: followed by the pickle body and the raw out-of-band buffers.  Entries
#: without the magic are legacy plain pickles and still load.
ENTRY_MAGIC = b"RPC5"


def library_fingerprint(library: StdCellLibrary) -> str:
    """Stable digest of the library's geometry-relevant content."""
    masters = sorted(
        (m.name, float(m.width), float(m.height), float(m.track_height))
        for m in library.masters.values()
    )
    payload = json.dumps(
        {
            "site_width": float(library.site_width),
            "tracks": sorted(float(t) for t in library.track_heights),
            "masters": masters,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def initial_placement_key(
    spec: TestcaseSpec, config: RunConfig, library: StdCellLibrary
) -> str:
    """Content hash identifying one testcase's Flow-(1) artifact."""
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "version": __version__,
            "testcase": {
                "circuit": spec.circuit,
                "clock_ps": spec.clock_ps,
                "paper_cells": spec.paper_cells,
                "paper_pct_75t": spec.paper_pct_75t,
                "seed": spec.seed,
            },
            "config": config.initial_placement_fingerprint(library),
            "library": library_fingerprint(library),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def eco_result_key(
    incumbent_fingerprint: str, delta_fingerprint: str
) -> str:
    """Content hash identifying one streaming-ECO repair result.

    The key pairs the incumbent artifact's fingerprint (typically its
    :func:`initial_placement_key`) with a
    :meth:`repro.eco.NetlistDelta.fingerprint`, so a repeated ECO
    request — same incumbent, same delta — hits the cache instead of
    re-running the repair.  Schema and package version participate, like
    every other cache key, so layout changes can never resurrect stale
    entries.
    """
    payload = json.dumps(
        {
            "schema": CACHE_SCHEMA_VERSION,
            "version": __version__,
            "kind": "eco_result",
            "incumbent": incumbent_fingerprint,
            "delta": delta_fingerprint,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/corruption counters of one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "corrupt": self.corrupt}


class ArtifactCache:
    """Pickle-backed content-addressed store under one directory.

    Entries are written in a protocol-5 format: the large numpy arrays
    inside an artifact are serialized as *out-of-band* buffers
    (:class:`pickle.PickleBuffer`), streamed to disk straight from their
    backing memory instead of being copied into one monolithic pickle
    blob — peak memory during ``put`` stays O(largest array), not
    O(artifact).  A sized JSON header records the payload byte count and
    per-buffer sizes, so :meth:`entry_header` answers "how big is this
    artifact" without unpickling it.  Legacy plain-pickle entries (no
    magic prefix) still load transparently.
    """

    def __init__(self, root: str | os.PathLike = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    def entry_header(self, key: str) -> dict | None:
        """The stored entry's header dict (``payload_bytes``,
        ``pickle_bytes``, ``buffer_bytes``), or ``None`` for a missing,
        legacy, or unreadable entry.  Never deserializes the payload."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                if fh.read(len(ENTRY_MAGIC)) != ENTRY_MAGIC:
                    return None
                size = int.from_bytes(fh.read(4), "little")
                return json.loads(fh.read(size))
        except (OSError, ValueError):
            return None

    def get(self, key: str) -> object | None:
        """Load an entry; a missing/corrupt entry returns ``None``.

        Corrupt entries (truncated pickle, schema drift, anything that
        raises during load) are deleted so the subsequent ``put`` starts
        clean.
        """
        path = self.path_for(key)
        if not path.exists():
            self.stats.misses += 1
            emit_event("cache.miss", key=key)
            return None
        try:
            with open(path, "rb") as fh:
                magic = fh.read(len(ENTRY_MAGIC))
                if magic == ENTRY_MAGIC:
                    size = int.from_bytes(fh.read(4), "little")
                    header = json.loads(fh.read(size))
                    body = fh.read(header["pickle_bytes"])
                    if len(body) != header["pickle_bytes"]:
                        raise ValueError("truncated pickle body")
                    buffers = []
                    for nbytes in header["buffer_bytes"]:
                        # Mutable buffers: arrays rebuilt over immutable
                        # ``bytes`` would come back read-only and break
                        # consumers that write in place (scratch arrays,
                        # coordinate updates).
                        raw = bytearray(nbytes)
                        if fh.readinto(raw) != nbytes:
                            raise ValueError("truncated buffer")
                        buffers.append(raw)
                    value = pickle.loads(body, buffers=buffers)
                else:
                    # Legacy entry: one plain pickle stream.
                    value = pickle.loads(magic + fh.read())
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            emit_event("cache.corrupt", key=key)
            emit_event("cache.miss", key=key)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        emit_event("cache.hit", key=key)
        return value

    def put(self, key: str, value: object) -> Path:
        """Atomically persist an entry (safe against concurrent writers)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        pickle_buffers: list[pickle.PickleBuffer] = []
        body = pickle.dumps(
            value, protocol=5, buffer_callback=pickle_buffers.append
        )
        try:
            raw_buffers = [buf.raw() for buf in pickle_buffers]
        except BufferError:
            # A non-contiguous out-of-band buffer: fall back to in-band.
            for buf in pickle_buffers:
                buf.release()
            pickle_buffers = []
            raw_buffers = []
            body = pickle.dumps(value, protocol=5)
        header = json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "pickle_bytes": len(body),
                "buffer_bytes": [m.nbytes for m in raw_buffers],
                "payload_bytes": len(body) + sum(m.nbytes for m in raw_buffers),
            },
            sort_keys=True,
        ).encode()
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=f".{key[:16]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(ENTRY_MAGIC)
                fh.write(len(header).to_bytes(4, "little"))
                fh.write(header)
                fh.write(body)
                for raw in raw_buffers:
                    fh.write(raw)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        finally:
            for raw in raw_buffers:
                raw.release()
            for buf in pickle_buffers:
                buf.release()
        return path


def load_or_prepare_initial(
    spec: TestcaseSpec,
    config: RunConfig,
    library: StdCellLibrary,
    cache: ArtifactCache | None,
) -> tuple[InitialPlacement, bool]:
    """The Flow-(1) artifact for ``spec``, cached; returns (initial, hit).

    On a cache hit, netlist generation *and* the initial placement are
    both skipped — the unpickled artifact carries its own design.  With
    ``cache=None`` the artifact is always computed fresh.
    """
    if cache is None:
        design = build_testcase(spec, library, scale=config.scale)
        return (
            prepare_initial_placement(
                design,
                library,
                utilization=config.utilization,
                aspect_ratio=config.aspect_ratio,
                heights=config.params.heights,
            ),
            False,
        )
    key = initial_placement_key(spec, config, library)
    cached = cache.get(key)
    if isinstance(cached, InitialPlacement):
        return cached, True
    with span("prepare_initial_placement.cache_fill", testcase=spec.testcase_id):
        design = build_testcase(spec, library, scale=config.scale)
        initial = prepare_initial_placement(
            design,
            library,
            utilization=config.utilization,
            aspect_ratio=config.aspect_ratio,
            heights=config.params.heights,
        )
    cache.put(key, initial)
    return initial, False
