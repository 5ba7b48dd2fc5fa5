"""Streaming ECO: incremental re-placement after a small netlist delta.

Production flows re-place after tiny netlist edits thousands of times a
day; paying the full flow-(5) pipeline — global place, clustering, RAP,
legalization — for a <1% edit wastes almost all of that work.  This
module repairs an incumbent :class:`~repro.core.flows.FlowResult` in
place instead:

1. **Delta application** (:func:`apply_delta`) — a
   :class:`NetlistDelta` of resize / rewire / insert / delete ops is
   applied to the design *and* to the cached mLEF-frame initial
   placement.  Degree-preserving edits (resize, rewire) patch the CSR
   pin arrays in place (:meth:`~repro.placement.db.PlacedDesign.
   patch_pins`) — ``net_ptr`` is untouched, so the cached
   :class:`~repro.kernels.NetTopology` stays valid with no rebuild.
   Degree-changing edits (insert, delete) rebuild the CSR arrays, which
   allocates a new ``net_ptr`` and thereby invalidates the cache.  The
   placement's ``revision`` advances; its HPWL is recomputed only when
   read.

2. **Dirty-set propagation** — delta-touched minority cells map through
   the runner's stored clustering labels to *dirty clusters*;
   everything else stays pinned.

3. **Incremental RAP repair** — the runner's stored RAP instance is
   brought up to the delta first: only the Eq. (2) rows of *stale*
   clusters (whose cells the delta touched or whose nets it changed)
   are recomputed, bit for bit what a fresh pass gives.  Then
   :func:`~repro.core.rap.solve_rap`
   with ``dirty_clusters=``, one call per class, warm-starts from the
   incumbent assignment and re-prices only the dirty columns under the
   incumbent's frozen row map.  A certified repair keeps the mixed
   floorplan (and every clean cell) untouched; anything the restricted
   engine cannot certify falls back to the resilient full-flow chain
   with explicit degraded provenance.

4. **Windowed re-legalization** — only the row pairs hosting dirty /
   moved clusters re-run the per-pair Abacus kernel, and only the
   majority rows around inserted / resized cells re-legalize
   (:func:`~repro.placement.incremental.legalize_row_windows`); the
   final HPWL comes from the incremental affected-nets evaluator
   (:func:`~repro.placement.incremental.hpwl_delta`), not a second full
   pass.

``eco.start`` / ``eco.repaired`` / ``eco.fallback`` events stream
through the live telemetry bus (``repro.events/1`` schema).

Delta ops are applied in canonical phase order — rewires, resizes,
inserts, deletes — regardless of their order in ``ops``, so rewire pin
positions always refer to the pre-delta netlist and pin removals can
never shift an index another op is about to use.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from repro.netlist.db import Design, NetPin
from repro.obs.events import emit_event
from repro.obs.trace import span
from repro.placement.db import PlacedDesign
from repro.placement.hpwl import hpwl_total
from repro.placement.incremental import hpwl_delta, legalize_row_windows
from repro.techlib.cells import CellMaster, StdCellLibrary
from repro.utils.errors import ReproError, ValidationError
from repro.utils.resilience import FlowProvenance

logger = logging.getLogger(__name__)


# -- delta schema -----------------------------------------------------------


@dataclass(frozen=True)
class ResizeOp:
    """Swap ``instance`` to another master of the same logic family.

    The target master must share the instance's function / VT / track
    (same pin names, different drive and width), so the edit is purely
    geometric: no net degree changes.
    """

    instance: int
    master: str


@dataclass(frozen=True)
class RewireOp:
    """Swap two sink pins between two non-clock nets.

    ``sink_a`` / ``sink_b`` are positions within each net's pin list
    (``>= 1``: the driver at position 0 never moves, so driver-first
    validity is preserved).  Degrees are unchanged — this is the CSR
    in-place patch fast path.
    """

    net_a: int
    sink_a: int
    net_b: int
    sink_b: int


@dataclass(frozen=True)
class InsertOp:
    """Add a buffer-style cell: input taps ``net``, output drives a new net.

    The new cell's input pin joins ``net`` as an extra sink and its
    output pin drives a fresh single-pin net, so the edit is
    driver-first valid by construction.  Net degrees change: structural.
    """

    name: str
    master: str
    net: int


@dataclass(frozen=True)
class DeleteOp:
    """Ghost-delete ``instance``: shrink to the family's smallest master
    and disconnect its input (sink) pins.

    Instances are never popped — dense instance indices are a DB
    invariant — so deletion leaves a minimal-width ghost whose output
    pins stay connected (nets remain driver-first valid).  Net degrees
    change: structural.
    """

    instance: int


EcoOp = ResizeOp | RewireOp | InsertOp | DeleteOp

_OP_TYPES: dict[str, type] = {
    t.__name__: t for t in (ResizeOp, RewireOp, InsertOp, DeleteOp)
}


@dataclass(frozen=True)
class NetlistDelta:
    """An ordered batch of ECO edits plus its content fingerprint."""

    ops: tuple[EcoOp, ...]

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    @property
    def structural(self) -> bool:
        """True when any op changes a net degree (CSR rebuild needed)."""
        return any(isinstance(op, (InsertOp, DeleteOp)) for op in self.ops)

    def fingerprint(self) -> str:
        """SHA-256 over the canonical op list (cache key half)."""
        payload = []
        for op in self.ops:
            entry = dataclasses.asdict(op)
            entry["op"] = type(op).__name__
            payload.append(entry)
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()

    def to_dict(self) -> list[dict]:
        """JSON-friendly op list (the ``repro eco --delta`` file format)."""
        out = []
        for op in self.ops:
            entry = dataclasses.asdict(op)
            entry["op"] = type(op).__name__
            out.append(entry)
        return out

    @classmethod
    def from_dict(cls, payload: list[dict]) -> "NetlistDelta":
        ops = []
        for entry in payload:
            entry = dict(entry)
            kind = entry.pop("op", None)
            if kind not in _OP_TYPES:
                raise ValidationError(f"unknown ECO op kind: {kind!r}")
            ops.append(_OP_TYPES[kind](**entry))
        return cls(ops=tuple(ops))


def make_eco_delta(
    design: Design,
    fraction: float = 0.01,
    seed: int = 0,
    library: StdCellLibrary | None = None,
) -> NetlistDelta:
    """Deterministic ECO delta touching ``~fraction`` of the instances.

    Op mix: ~50% resizes, ~30% rewires, ~10% inserts, ~10% ghost
    deletes.  Resize / delete draw replacement masters from ``library``
    when given, else from the master pool already used by the design;
    inserts pick a single-input majority-class (largest area share)
    cell, so inserted cells never enter the RAP.  Same ``(design,
    fraction, seed)`` always yields the same delta — benches and the
    equivalence suite depend on that.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValidationError("delta fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    n = design.num_instances
    n_ops = max(1, int(round(fraction * n)))

    if library is not None:
        pool = list(library.masters.values())
    else:
        pool = list(
            {inst.master.name: inst.master for inst in design.instances}
            .values()
        )
    families: dict[tuple, list[CellMaster]] = {}
    for m in pool:
        families.setdefault((m.function, m.vt, m.track_height), []).append(m)
    for fam in families.values():
        fam.sort(key=lambda m: (m.width, m.name))
    areas = design.area_by_track()
    major = max(sorted(areas), key=lambda t: areas[t])
    buffers = sorted(
        (
            m
            for m in pool
            if m.track_height == major
            and len(m.input_pins) == 1
            and not m.is_sequential
        ),
        key=lambda m: (m.width, m.name),
    )
    signal_nets = [
        net.index
        for net in design.nets
        if not net.is_clock and net.degree >= 2
    ]

    def family_of(master: CellMaster) -> list[CellMaster]:
        return families.get(
            (master.function, master.vt, master.track_height), []
        )

    used: set[int] = set()  # instances already resized/deleted
    used_slots: set[tuple[int, int]] = set()  # (net, position) rewired

    def gen_resize() -> ResizeOp | None:
        for _ in range(32):
            i = int(rng.integers(n))
            if i in used:
                continue
            inst = design.instances[i]
            variants = [
                m for m in family_of(inst.master) if m.name != inst.master.name
            ]
            if not variants:
                continue
            used.add(i)
            return ResizeOp(i, variants[int(rng.integers(len(variants)))].name)
        return None

    def sink_positions(net) -> list[int]:
        return [
            k
            for k, p in enumerate(net.pins)
            if k >= 1 and not p.is_port and (net.index, k) not in used_slots
        ]

    def gen_rewire() -> RewireOp | None:
        if len(signal_nets) < 2:
            return None
        for _ in range(32):
            a, b = (
                int(x)
                for x in rng.choice(len(signal_nets), size=2, replace=False)
            )
            net_a = design.nets[signal_nets[a]]
            net_b = design.nets[signal_nets[b]]
            sinks_a = sink_positions(net_a)
            sinks_b = sink_positions(net_b)
            if not sinks_a or not sinks_b:
                continue
            ia = sinks_a[int(rng.integers(len(sinks_a)))]
            ib = sinks_b[int(rng.integers(len(sinks_b)))]
            pa, pb = net_a.pins[ia], net_b.pins[ib]
            if any(
                q.instance_index == pa.instance_index
                and q.pin_name == pa.pin_name
                for q in net_b.pins
            ) or any(
                q.instance_index == pb.instance_index
                and q.pin_name == pb.pin_name
                for q in net_a.pins
            ):
                continue  # would duplicate an (instance, pin) on a net
            used_slots.add((net_a.index, ia))
            used_slots.add((net_b.index, ib))
            return RewireOp(net_a.index, ia, net_b.index, ib)
        return None

    insert_serial = 0

    def gen_insert() -> InsertOp | None:
        nonlocal insert_serial
        if not buffers or not signal_nets:
            return None
        net = signal_nets[int(rng.integers(len(signal_nets)))]
        master = buffers[int(rng.integers(len(buffers)))]
        insert_serial += 1
        return InsertOp(f"eco_s{seed}_i{insert_serial}", master.name, net)

    def gen_delete() -> DeleteOp | None:
        for _ in range(32):
            i = int(rng.integers(n))
            if i in used:
                continue
            inst = design.instances[i]
            if not inst.master.input_pins or not family_of(inst.master):
                continue
            used.add(i)
            return DeleteOp(i)
        return None

    generators = (gen_resize, gen_rewire, gen_insert, gen_delete)
    kinds = rng.choice(4, size=n_ops, p=(0.5, 0.3, 0.1, 0.1))
    ops: list[EcoOp] = []
    for kind in kinds:
        op = generators[int(kind)]()
        if op is None:  # that op type found no target; resize is the backstop
            op = gen_resize()
        if op is not None:
            ops.append(op)
    return NetlistDelta(ops=tuple(ops))


# -- delta application ------------------------------------------------------


@dataclass
class AppliedDelta:
    """What :func:`apply_delta` did (dirty-set inputs + patch telemetry)."""

    touched: np.ndarray  # pre-existing instances with changed geometry/pins
    inserted: np.ndarray  # freshly added instance indices
    structural: bool  # True when the CSR arrays changed shape
    patched_pins: int  # pin slots patched in place (fast path)
    inserted_hosts: list[tuple[int, int]] = field(default_factory=list)
    resized: dict[int, CellMaster] = field(default_factory=dict)
    rewire_slot_pairs: list[tuple[int, int]] = field(default_factory=list)
    # Frame-patch replay inputs: both frames (mLEF + incumbent) share one
    # CSR slot layout, so the slot walk / dead-sink scan run once and the
    # incumbent sync replays them with its own master geometry.
    resize_slots: list[tuple[int, int, str]] = field(default_factory=list)
    del_slots: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    # Nets that lost dead sinks (owners of ``del_slots`` in the
    # pre-delete CSR; net ids survive the structural patch).
    pruned_nets: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )


def _instance_pin_slots(
    design: Design, placed: PlacedDesign, instances: set[int]
) -> list[tuple[int, int, str]]:
    """(CSR slot, instance, pin name) for every pin of ``instances``.

    Candidate nets come from the CSR ``pin_inst`` array (one vectorized
    membership test), so only nets actually touching ``instances`` are
    walked in Python.  Valid only while ``design``'s pin lists and
    ``placed``'s CSR arrays agree slot-for-slot — i.e. before any
    degree-changing edit of this delta.
    """
    targets = np.fromiter(instances, dtype=np.int64, count=len(instances))
    hit = np.flatnonzero(np.isin(placed.pin_inst, targets))
    net_ids = np.unique(
        np.searchsorted(placed.net_ptr, hit, side="right") - 1
    )
    out = []
    for j in net_ids:
        base = int(placed.net_ptr[j])
        for pos, p in enumerate(design.nets[j].pins):
            if not p.is_port and p.instance_index in instances:
                out.append((base + pos, p.instance_index, p.pin_name))
    return out


def _patch_structural(
    placed: PlacedDesign,
    design: Design,
    del_slots: np.ndarray,
    inserted: list[int],
    inserted_hosts: list[tuple[int, int]],
    master_of: dict[int, CellMaster],
) -> None:
    """Degree-changing CSR patch: batch sink deletes + net-end inserts.

    Vectorized equivalent of rebuilding the frame from the mutated
    design: deleted sink slots are masked out, each inserted cell's
    input sink enters at its host net's end and its single-pin output
    net is appended — exactly the pin order ``_build_csr`` would
    produce, at O(pins) numpy cost instead of a Python netlist walk.
    Inserted cells seed at their host net's driver so the windowed
    legalizer only absorbs a local disturbance.  The new ``net_ptr`` is
    a fresh (frozen) array, so the cached topology drops by identity.
    """
    old_ptr = placed.net_ptr
    n_nets_old = len(old_ptr) - 1
    keep = np.ones(len(placed.pin_inst), dtype=bool)
    keep[del_slots] = False
    cum_keep = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=cum_keep[1:])

    hosts = np.array([net for _i, net in inserted_hosts], dtype=np.int64)
    sink_inst = np.array([i for i, _n in inserted_hosts], dtype=np.int64)
    sink_dx = np.array(
        [float(master_of[i].input_pins[0].offset.x) for i in sink_inst], float
    )
    sink_dy = np.array(
        [float(master_of[i].input_pins[0].offset.y) for i in sink_inst], float
    )
    ins_pos = cum_keep[old_ptr[hosts + 1]] if len(hosts) else hosts
    drv_inst = np.asarray(inserted, dtype=np.int64)
    placed.pin_inst = np.concatenate(
        [np.insert(placed.pin_inst[keep], ins_pos, sink_inst), drv_inst]
    )
    placed.pin_dx = np.concatenate(
        [
            np.insert(placed.pin_dx[keep], ins_pos, sink_dx),
            [float(master_of[i].output_pin.offset.x) for i in inserted],
        ]
    )
    placed.pin_dy = np.concatenate(
        [
            np.insert(placed.pin_dy[keep], ins_pos, sink_dy),
            [float(master_of[i].output_pin.offset.y) for i in inserted],
        ]
    )

    counts = np.diff(old_ptr)
    if len(del_slots):
        del_net = np.searchsorted(old_ptr, del_slots, side="right") - 1
        counts = counts - np.bincount(del_net, minlength=n_nets_old)
    if len(hosts):
        counts = counts + np.bincount(hosts, minlength=n_nets_old)
    net_ptr = np.zeros(n_nets_old + len(inserted) + 1, dtype=np.int64)
    net_ptr[1 : n_nets_old + 1] = np.cumsum(counts)
    net_ptr[n_nets_old + 1 :] = net_ptr[n_nets_old] + np.arange(
        1, len(inserted) + 1
    )
    net_ptr.flags.writeable = False
    placed.net_ptr = net_ptr
    placed.net_weight = np.concatenate(
        [placed.net_weight, np.ones(len(inserted))]
    )

    seed_x = np.zeros(len(inserted))
    seed_y = np.zeros(len(inserted))
    for k, (_i, net) in enumerate(inserted_hosts):
        driver = design.nets[net].driver
        if driver.is_port:
            seed_x[k] = float(placed.port_x[driver.port_index])
            seed_y[k] = float(placed.port_y[driver.port_index])
        else:
            seed_x[k] = float(placed.x[driver.instance_index])
            seed_y[k] = float(placed.y[driver.instance_index])
    placed.x = np.concatenate([placed.x, seed_x])
    placed.y = np.concatenate([placed.y, seed_y])
    placed.widths = np.concatenate(
        [placed.widths, [float(master_of[i].width) for i in inserted]]
    )
    placed.heights = np.concatenate(
        [placed.heights, [float(master_of[i].height) for i in inserted]]
    )
    placed._port_pin_mask = placed.pin_inst < 0
    placed._topology = None


def _patch_resized_pins(
    placed: PlacedDesign,
    slots: list[tuple[int, int, str]],
    master_of: dict[int, CellMaster],
) -> int:
    """Patch widths/x (center-preserving) + pin offsets for resized cells."""
    for i, master in master_of.items():
        cx = placed.x[i] + placed.widths[i] / 2.0
        placed.widths[i] = float(master.width)
        placed.heights[i] = float(master.height)
        placed.x[i] = cx - placed.widths[i] / 2.0
    if not slots:
        return 0
    idx = np.array([s for s, _, _ in slots], dtype=np.int64)
    inst = np.array([i for _, i, _ in slots], dtype=np.int64)
    dx = np.array(
        [master_of[i].pin(name).offset.x for _, i, name in slots], float
    )
    dy = np.array(
        [master_of[i].pin(name).offset.y for _, i, name in slots], float
    )
    placed.patch_pins(idx, inst, dx, dy)
    return len(slots)


def _swap_pin_slots(
    placed: PlacedDesign, pairs: list[tuple[int, int]]
) -> int:
    """Apply rewires as in-place CSR entry swaps (degree-preserving)."""
    if not pairs:
        return 0
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    slots = np.concatenate([a, b])
    other = np.concatenate([b, a])
    placed.patch_pins(
        slots,
        placed.pin_inst[other],
        placed.pin_dx[other],
        placed.pin_dy[other],
    )
    return len(slots)


def apply_delta(init, delta: NetlistDelta) -> AppliedDelta:
    """Apply ``delta`` to the design and its cached mLEF-frame placement.

    Mutates ``init`` (an :class:`~repro.core.flows.InitialPlacement`) in
    place — streaming semantics: subsequent deltas compose on top.
    Degree-preserving edits patch the CSR pin arrays in place;
    structural ones (inserts / deletes) go through the vectorized
    :func:`_patch_structural` slot edit — never a full frame rebuild.
    Class width tables (the RAP capacity inputs) are refreshed for
    resized / ghosted cells, and ``init.revision`` advances, so the
    placement's HPWL is recomputed on its next read.
    """
    design = init.design
    library = init.library
    # Before any edit: a delta that fails half-way still leaves nothing
    # cached against the old placement looking current.
    init.revision += 1

    rewires = [op for op in delta.ops if isinstance(op, RewireOp)]
    resizes = [op for op in delta.ops if isinstance(op, ResizeOp)]
    inserts = [op for op in delta.ops if isinstance(op, InsertOp)]
    deletes = [op for op in delta.ops if isinstance(op, DeleteOp)]

    touched: set[int] = set()
    resized: dict[int, CellMaster] = {}
    rewire_slot_pairs: list[tuple[int, int]] = []
    inserted: list[int] = []
    inserted_hosts: list[tuple[int, int]] = []
    inserted_nets: list[int] = []

    for op in rewires:
        net_a, net_b = design.nets[op.net_a], design.nets[op.net_b]
        if not (1 <= op.sink_a < len(net_a.pins)) or not (
            1 <= op.sink_b < len(net_b.pins)
        ):
            raise ValidationError("rewire sink position out of range")
        pa, pb = net_a.pins[op.sink_a], net_b.pins[op.sink_b]
        if pa.is_port or pb.is_port:
            raise ValidationError("rewire may only move instance sink pins")
        net_a.pins[op.sink_a], net_b.pins[op.sink_b] = pb, pa
        rewire_slot_pairs.append(
            (
                int(init.placed.net_ptr[op.net_a]) + op.sink_a,
                int(init.placed.net_ptr[op.net_b]) + op.sink_b,
            )
        )
        touched.add(pa.instance_index)
        touched.add(pb.instance_index)

    # Rewires enter the mLEF frame immediately (degree-preserving entry
    # swaps), keeping design pin lists and CSR slots aligned for the
    # slot walk / dead-sink scan below.
    patched = _swap_pin_slots(init.placed, rewire_slot_pairs)

    for op in resizes:
        inst = design.instances[op.instance]
        new = library[op.master]
        old = inst.master
        if (new.function, new.vt, new.track_height) != (
            old.function, old.vt, old.track_height
        ):
            raise ValidationError(
                f"resize target {new.name} is not in {old.name}'s family"
            )
        inst.master = new
        resized[op.instance] = new
        touched.add(op.instance)

    # Delete phase, part 1: ghost the masters (no pin-list edits yet) so
    # one slot walk covers resizes and ghosts together while design and
    # CSR still agree slot-for-slot.
    dead: dict[int, set[str]] = {}
    for op in deletes:
        inst = design.instances[op.instance]
        dead[op.instance] = {p.name for p in inst.master.input_pins}
        family = library.find(
            inst.master.function, None, inst.master.vt,
            inst.master.track_height,
        )
        ghost = min(family, key=lambda m: (m.width, m.name))
        inst.master = ghost
        resized[op.instance] = ghost
        touched.add(op.instance)

    resize_slots: list[tuple[int, int, str]] = []
    if resized:
        resize_slots = _instance_pin_slots(
            design, init.placed, set(resized)
        )
        twins = {i: init.mlef.mlef(m.name) for i, m in resized.items()}
        patched += _patch_resized_pins(init.placed, resize_slots, twins)

    n_nets_before = len(design.nets)
    for op in inserts:
        if not (0 <= op.net < n_nets_before):
            raise ValidationError("insert host must be a pre-delta net")
        master = library[op.master]
        inst = design.add_instance(op.name, master)
        out_net = design.add_net(f"{op.name}__out")
        out_net.pins.append(
            NetPin.on_instance(inst.index, master.output_pin.name)
        )
        design.nets[op.net].pins.append(
            NetPin.on_instance(inst.index, master.input_pins[0].name)
        )
        inserted.append(inst.index)
        inserted_hosts.append((inst.index, op.net))
        inserted_nets.append(out_net.index)

    modified_nets: set[int] = {op.net_a for op in rewires}
    modified_nets |= {op.net_b for op in rewires}

    # Delete phase, part 2: the dead sinks leave the design's pin lists.
    # Slot indices of the same sinks in the (pre-delete) CSR arrays come
    # from one vectorized scan: every non-driver slot of a dead instance
    # is one of its input pins — exactly the set the list filter drops.
    del_slots = owners = np.empty(0, dtype=np.int64)
    if dead:
        is_driver = np.zeros(len(init.placed.pin_inst), dtype=bool)
        is_driver[init.placed.net_ptr[:-1]] = True
        dead_arr = np.fromiter(dead, dtype=np.int64, count=len(dead))
        del_slots = np.flatnonzero(
            np.isin(init.placed.pin_inst, dead_arr) & ~is_driver
        )
        # The nets owning those slots are the only ones that carry a
        # disconnected sink, so only their pin lists are rebuilt.
        owners = np.unique(
            np.searchsorted(init.placed.net_ptr, del_slots, side="right") - 1
        )
        for j in owners.tolist():
            net = design.nets[j]
            net.pins = [
                p
                for p in net.pins
                if p.is_port
                or p.instance_index not in dead
                or p.pin_name not in dead[p.instance_index]
            ]
            modified_nets.add(j)

    # Targeted validation: resizes stay within one family (same pin
    # names and directions), so only nets whose pin lists changed can
    # break an invariant — a full design.validate() walk here would
    # dominate the sub-second repair budget.
    for op in inserts:
        modified_nets.add(op.net)
    modified_nets.update(inserted_nets)
    for j in sorted(modified_nets):
        design._validate_net(design.nets[j])

    structural = bool(inserts or deletes)
    if structural:
        _patch_structural(
            init.placed,
            design,
            del_slots,
            inserted,
            inserted_hosts,
            {
                j: init.mlef.mlef(design.instances[j].master.name)
                for j in inserted
            },
        )

    # Capacity inputs: resized / ghosted minority-class cells change the
    # original-master width table their cluster widths are summed from.
    if resized:
        for _track, (indices, widths) in init.classes().items():
            for i, master in resized.items():
                pos = int(np.searchsorted(indices, i))
                if pos < len(indices) and indices[pos] == i:
                    widths[pos] = float(master.width)

    return AppliedDelta(
        touched=np.array(sorted(touched), dtype=np.int64),
        inserted=np.array(inserted, dtype=np.int64),
        structural=structural,
        patched_pins=patched,
        inserted_hosts=inserted_hosts,
        resized=resized,
        rewire_slot_pairs=rewire_slot_pairs,
        resize_slots=resize_slots,
        del_slots=del_slots,
        pruned_nets=owners,
    )


# -- ECO repair orchestration -----------------------------------------------


class _EcoFallback(ReproError):
    """Internal: the incremental path cannot certify; run the full flow."""


@dataclass
class EcoResult:
    """Outcome of one streaming-ECO request.

    ``fallback`` marks the degraded path: the incremental repair could
    not certify (or crashed) and the resilient full-flow chain produced
    the answer instead (``flow`` carries that run, its provenance
    labeled ``eco-fallback``).
    """

    hpwl: float
    seconds: float
    displacement: float
    placed: PlacedDesign
    assignment: object | None
    certified: bool
    fallback: bool
    reason: str
    n_ops: int
    n_dirty_clusters: int
    moved_cells: int
    patched_pins: int
    structural: bool
    flow: object | None = None

    @property
    def degraded(self) -> bool:
        return self.fallback


def _stale_cells(placed: PlacedDesign, app: AppliedDelta) -> np.ndarray:
    """Instances whose RAP cost rows ``app`` may have changed (a mask).

    A class cell's Disp and width move only with its own geometry, and
    its dHPWL only with the pins of the nets it sits on.  So the stale
    cells are the touched ones plus every cell with a pin on a stale
    net: a net holding a pin of a touched or inserted instance after the
    delta, or one that lost dead sinks.  Rewires are covered because
    both swapped pins' instances are touched.
    """
    n = len(placed.x)
    edited = np.zeros(n, dtype=bool)
    edited[app.touched] = True
    edited[app.inserted] = True
    topo = placed.topology
    inst = placed.pin_inst
    on_cell = inst >= 0
    stale_net = np.zeros(topo.n_nets, dtype=bool)
    stale_net[topo.net_ids[on_cell & edited[np.maximum(inst, 0)]]] = True
    stale_net[app.pruned_nets] = True
    stale = np.zeros(n, dtype=bool)
    stale[inst[on_cell & stale_net[topo.net_ids]]] = True
    stale[app.touched] = True
    return stale


def _refresh_rap(runner, app: AppliedDelta) -> None:
    """Bring the runner's stored RAP instance up to the delta, in place.

    Only the rows of stale clusters (:func:`_stale_cells`) are
    recomputed, for every class before any class solves, so each delta
    of a chain starts from current costs.  A store that missed an
    earlier edit of the placement cannot be brought up; it is dropped.
    """
    store = runner._rap
    init = runner.initial
    if store is None:
        return
    if store.revision != init.revision - 1:
        runner._rap = None
        return
    stale = _stale_cells(init.placed, app)
    for (_t, indices, widths), costs in zip(runner._classes, store.classes):
        costs.refresh(
            init.placed, indices, init.pair_center_y, widths,
            np.unique(costs.labels[stale[indices]]),
        )
    store.revision = init.revision


def _repair_classes(runner, base, app):
    """Per-class incremental RAP repair under the frozen row map.

    Returns ``(by_track, objective, dirty_count,
    moved_clusters_by_class)``, every class certified.  Raises
    :class:`_EcoFallback` when any class's restricted repair cannot
    certify equality with its row-frozen subproblem optimum.
    """
    from repro.core.rap import solve_rap
    from repro.solvers.milp import MilpStatus

    init = runner.initial
    params = runner.params
    cap = init.pair_capacity * params.row_fill

    by_track: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    moved_by: list[np.ndarray] = []
    objective = 0.0
    dirty_total = 0
    for (track, indices, _w), costs in zip(
        runner._classes, runner._rap.classes
    ):
        labels = costs.labels
        warm = np.asarray(base.by_track[track][0], dtype=int)
        n_clusters = len(warm)
        dirty = np.unique(labels[np.isin(indices, app.touched)])
        dirty_total += len(dirty)
        f = costs.combine(params.alpha)
        if len(dirty) == 0:
            new = warm
        else:
            # The frozen row map decouples the classes, so each class
            # repairs in its own single-class solve.
            solution, maps, stats = solve_rap(
                [f],
                [costs.cluster_width],
                cap,
                [len(np.unique(warm))],
                backend=params.solver_backend,
                time_limit_s=params.solver_time_limit_s,
                warm_assignment=[warm],
                dirty_clusters=dirty,
            )
            if maps is None:
                # No restricted solve ran (the incumbent is infeasible
                # under the post-delta widths) or the row-frozen
                # subproblem has no solution: repair does not apply.
                # Anything else is a failure.
                unavailable = (
                    stats.rounds == 0
                    or solution.status is MilpStatus.INFEASIBLE
                )
                raise _EcoFallback(
                    "restricted repair "
                    f"{'unavailable' if unavailable else 'failed'} for "
                    f"{track:g}T ({solution.status.value} after "
                    f"{stats.rounds} rounds)"
                )
            if not stats.certified:
                raise _EcoFallback(
                    f"restricted repair uncertified for {track:g}T"
                )
            (new,) = maps
        objective += float(f[np.arange(n_clusters), new].sum())
        moved_by.append(np.flatnonzero(new != warm))
        by_track[track] = (new, new[labels])
    return by_track, objective, dirty_total, moved_by


def _sync_mixed_frame(runner, incumbent, app) -> PlacedDesign:
    """Post-delta geometry in the incumbent's mixed frame.

    Replays the slot edits :func:`apply_delta` recorded against the mLEF
    frame — both frames are built from the same design, so slot indices
    transfer verbatim; only the master geometry (original vs mLEF twin)
    differs.  Structural deltas replay through the same vectorized
    :func:`_patch_structural` edit on the incumbent's own floorplan —
    the frozen row map guarantees it is still the right one.
    """
    design = runner.initial.design
    placed = incumbent.placed.copy()
    _swap_pin_slots(placed, app.rewire_slot_pairs)
    if app.resized:
        originals = {
            i: design.instances[i].master for i in app.resized
        }
        _patch_resized_pins(placed, app.resize_slots, originals)
    if app.structural:
        inserted = [int(j) for j in app.inserted]
        _patch_structural(
            placed,
            design,
            app.del_slots,
            inserted,
            app.inserted_hosts,
            {j: design.instances[j].master for j in inserted},
        )
    return placed


def _legalize_windows(
    runner, placed, by_track, labels_by, moved_by, app
) -> None:
    """Windowed re-legalization: dirty pairs + disturbed majority rows.

    Only row pairs that gained, lost, or host a delta-touched cluster
    re-run the per-pair Abacus pass; only majority rows near inserted /
    resized / rewired majority cells re-legalize.  Clean rows are never
    visited — that locality is where the ECO speedup comes from.
    """
    pairs = placed.floorplan.row_pairs()
    pair_center = np.array([p.center_y for p in pairs], dtype=float)
    # Geometry-disturbed cells only: resizes/ghosts change widths and
    # inserts add cells, but a rewire swaps connectivity without moving
    # anything — its rows stay legal and need no window pass.
    disturbed_all = np.union1d(
        np.array(sorted(app.resized), dtype=np.int64), app.inserted
    ).astype(np.int64)
    for k, (track, indices, _w) in enumerate(runner._classes):
        cell_to_pair = by_track[track][1]
        # Cells of re-assigned clusters jump to their new pair's center;
        # everything else stays where the incumbent legalizer put it.
        # Membership for the window passes is by *physical* row occupancy
        # — a fence-legalized incumbent places minority cells anywhere in
        # the row-pair union, not at their assigned pair.
        in_moved = np.isin(labels_by[k], moved_by[k])
        moved_cells = indices[in_moved]
        if len(moved_cells):
            placed.y[moved_cells] = (
                pair_center[cell_to_pair[in_moved]]
                - placed.heights[moved_cells] / 2.0
            )
        affected = np.union1d(
            moved_cells, indices[np.isin(indices, disturbed_all)]
        )
        if len(affected):
            rows = placed.floorplan.rows_of_track(track)
            legalize_row_windows(placed, rows, indices, affected, window=1)

    # Majority rows: only the windows around disturbed majority cells.
    majority_mask = np.ones(len(placed.x), dtype=bool)
    for _t, indices, _w in runner._classes:
        majority_mask[indices] = False
    disturbed = disturbed_all[majority_mask[disturbed_all]]
    if len(disturbed):
        rows = [
            r
            for r in placed.floorplan.rows
            if r.track_height == runner.majority_track
        ]
        legalize_row_windows(
            placed, rows, np.flatnonzero(majority_mask), disturbed, window=1
        )


def run_eco(runner, delta: NetlistDelta, incumbent) -> EcoResult:
    """Repair ``incumbent`` after ``delta`` without a full re-run.

    The runner's cached initial placement is mutated in place (streaming
    semantics: later deltas compose).  On any non-certifiable condition
    — missing incumbent assignment / cached labels, an uncertified or
    failed restricted solve, a window that cannot absorb the
    disturbance, or an injected fault at the ``eco.repair`` stage — the
    resilient full-flow chain runs instead and the result is labeled
    degraded (``fallback=True``, ``eco.fallback`` event, provenance
    relaxation entry).
    """
    from repro.core.rap import repair_assignment

    t0 = time.perf_counter()
    emit_event(
        "eco.start", n_ops=delta.n_ops, structural=delta.structural
    )
    with span("eco", n_ops=delta.n_ops) as root:
        app = apply_delta(runner.initial, delta)
        runner.invalidate_assignments()
        base = incumbent.assignment
        try:
            _refresh_rap(runner, app)
            runner.policy.inject("eco.repair")
            if base is None:
                raise _EcoFallback("incumbent has no row assignment")
            if runner._rap is None:
                raise _EcoFallback("no cached clustering labels")
            labels_by = [c.labels for c in runner._rap.classes]
            by_track, objective, n_dirty, moved_by = _repair_classes(
                runner, base, app
            )
            placed = _sync_mixed_frame(runner, incumbent, app)
            x0, y0 = placed.clone_positions()
            base_hpwl = hpwl_total(placed)
            assignment = repair_assignment(
                base, by_track, objective, time.perf_counter() - t0
            )
            _legalize_windows(
                runner, placed, by_track, labels_by, moved_by, app
            )
        except _EcoFallback as exc:
            root.annotate(outcome="fallback", reason=str(exc))
            return _run_fallback(runner, delta, incumbent, str(exc), t0, app)
        except ReproError as exc:
            reason = f"{type(exc).__name__}: {exc}"
            root.annotate(outcome="fallback", reason=reason)
            return _run_fallback(runner, delta, incumbent, reason, t0, app)

        moved = np.flatnonzero((placed.x != x0) | (placed.y != y0))
        final_hpwl = base_hpwl + hpwl_delta(placed, moved, x0, y0)
        displacement = float(
            np.abs(placed.x[moved] - x0[moved]).sum()
            + np.abs(placed.y[moved] - y0[moved]).sum()
        )
        seconds = time.perf_counter() - t0
        prov = FlowProvenance(
            requested_backend=runner.params.solver_backend,
            backend=f"{runner.params.solver_backend}+eco",
        )
        runner._ilp = (
            assignment, 0.0, seconds,
            sum(len(c2p) for c2p, _ in by_track.values()), prov,
        )
        runner._rap_warm = [c2p for c2p, _ in by_track.values()]
        emit_event(
            "eco.repaired",
            seconds=seconds,
            hpwl=final_hpwl,
            certified=True,
            n_dirty_clusters=n_dirty,
            moved_cells=int(len(moved)),
        )
        root.annotate(outcome="repaired", hpwl=final_hpwl)
        logger.info(
            "eco repaired: %d ops, %d dirty clusters, %d cells moved, "
            "HPWL %.4g, %.3fs",
            delta.n_ops, n_dirty, len(moved), final_hpwl, seconds,
        )
        return EcoResult(
            hpwl=float(final_hpwl),
            seconds=seconds,
            displacement=displacement,
            placed=placed,
            assignment=assignment,
            certified=True,
            fallback=False,
            reason="",
            n_ops=delta.n_ops,
            n_dirty_clusters=n_dirty,
            moved_cells=int(len(moved)),
            patched_pins=app.patched_pins,
            structural=app.structural,
        )


def _run_fallback(runner, delta, incumbent, reason, t0, app) -> EcoResult:
    """Degraded path: resilient full-flow re-run off the mutated initial."""
    emit_event("eco.fallback", reason=reason)
    logger.warning("eco falling back to full flow: %s", reason)
    runner.invalidate_assignments()
    flow = runner.run(incumbent.kind)
    flow.provenance.relaxations.append(f"eco-fallback: {reason}")
    flow.provenance.degraded = True
    seconds = time.perf_counter() - t0
    return EcoResult(
        hpwl=flow.hpwl,
        seconds=seconds,
        displacement=flow.displacement,
        placed=flow.placed,
        assignment=flow.assignment,
        certified=False,
        fallback=True,
        reason=reason,
        n_ops=delta.n_ops,
        n_dirty_clusters=0,
        moved_cells=0,
        patched_pins=app.patched_pins if app is not None else 0,
        structural=delta.structural,
        flow=flow,
    )
