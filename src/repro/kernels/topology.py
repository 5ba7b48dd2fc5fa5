"""Cached CSR net topology and segmented extreme-value kernels.

Every placement hot path used to re-derive the same arrays from
``PlacedDesign.net_ptr`` — the pin→net expansion ``net_ids``, per-net
``degrees`` and the per-net extreme ("bound") pins — on every call, with
an ``O(P log P)`` lexsort per axis.  :class:`NetTopology` computes the
structural arrays once and replaces the lexsorts with a handful of
``O(P)`` segmented ``reduceat`` passes over reusable workspaces.

Contract
--------

A :class:`NetTopology` is derived **only** from ``net_ptr`` (the CSR
prefix offsets) and the pin count.  Anything weight-dependent (the
active-net mask) is computed per call from the ``net_weight`` array the
caller passes, so re-weighting nets (timing-driven placement) never
invalidates the cache; only rebuilding the CSR arrays themselves does.
``PlacedDesign`` owns the cache and drops it whenever ``_build_csr``
runs; call :meth:`~repro.placement.db.PlacedDesign.invalidate_topology`
after any manual mutation of ``net_ptr``/pin arrays.

Tie-breaking matches the lexsort-based implementations this module
replaces bit-for-bit: the *first* bound pin of a net is the lowest pin
index among pins at the per-net minimum, the *last* is the highest pin
index among pins at the maximum — exactly what a stable
``np.lexsort((coords, net_ids))`` produced.

The workspaces make instances **not** thread-safe; each thread (or
sweep worker process) must use its own ``PlacedDesign``/topology.
"""

from __future__ import annotations

import numpy as np


class NetTopology:
    """Immutable CSR-derived arrays plus reusable reduction workspaces.

    Attributes
    ----------
    net_ptr : (N+1,) int64 prefix offsets into the pin arrays.
    starts : view ``net_ptr[:-1]`` — the ``reduceat`` segment starts.
    degrees : (N,) pin count per net.
    net_ids : (P,) owning net per pin (the pin→net expansion).
    pin_index : (P,) ``arange`` over pins, shared by all kernels.
    multi_pin : (N,) bool, nets with ``degree >= 2``.
    """

    __slots__ = (
        "net_ptr",
        "starts",
        "degrees",
        "net_ids",
        "pin_index",
        "multi_pin",
        "n_nets",
        "n_pins",
        "_scratch_f",
        "_scratch_i",
    )

    def __init__(self, net_ptr: np.ndarray, n_pins: int) -> None:
        self.net_ptr = net_ptr
        self.n_nets = len(net_ptr) - 1
        self.n_pins = int(n_pins)
        self.starts = net_ptr[:-1]
        self.degrees = np.diff(net_ptr)
        self.net_ids = np.repeat(np.arange(self.n_nets), self.degrees)
        self.pin_index = np.arange(self.n_pins)
        self.multi_pin = self.degrees >= 2
        # Segmented-reduction workspaces, reused across calls so the hot
        # loops never allocate P-sized temporaries for masking.
        self._scratch_f = np.empty(self.n_pins)
        self._scratch_i = np.empty(self.n_pins, dtype=np.int64)

    def describes(self, net_ptr: np.ndarray, n_pins: int) -> bool:
        """True iff this topology was built from exactly these arrays.

        Identity (not equality) on ``net_ptr``: structural edits are
        required to allocate a new offsets array (``PlacedDesign``
        freezes its ``net_ptr``), so object identity plus the pin count
        is a complete staleness check — and it costs O(1), which is what
        lets the owning cache validate on every access.
        """
        return self.net_ptr is net_ptr and self.n_pins == int(n_pins)

    def active_nets(self, net_weight: np.ndarray) -> np.ndarray:
        """Nets that contribute to wirelength: ``degree >= 2`` and weighted.

        Computed per call (not cached) so in-place or rebinding updates of
        ``net_weight`` are always honored.
        """
        return self.multi_pin & (net_weight > 0)

    def minmax(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-net (min, max) of a per-pin array (segmented reduce)."""
        lo = np.minimum.reduceat(values, self.starts)
        hi = np.maximum.reduceat(values, self.starts)
        return lo, hi

    def bound_pins(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-net (first, last) extreme pin indices on one axis.

        ``first`` holds, per net, the lowest pin index among pins at the
        net minimum; ``last`` the highest pin index among pins at the
        maximum — the stable-lexsort tie-break of the code this replaces.
        """
        lo, hi = self.minmax(coords)
        si = self._scratch_i
        np.copyto(si, self.n_pins)
        np.copyto(si, self.pin_index, where=coords == lo[self.net_ids])
        first = np.minimum.reduceat(si, self.starts)
        np.copyto(si, -1)
        np.copyto(si, self.pin_index, where=coords == hi[self.net_ids])
        last = np.maximum.reduceat(si, self.starts)
        return first, last

    def pins_of(self, nets: np.ndarray) -> np.ndarray:
        """Pin indices of ``nets``, net by net in CSR order.

        Ascending ``nets`` give ascending pin indices.
        """
        degrees = self.degrees[nets]
        offsets = np.cumsum(degrees) - degrees
        return np.repeat(self.net_ptr[nets] - offsets, degrees) + np.arange(
            int(degrees.sum())
        )

    def per_pin_other_extents(
        self, coords: np.ndarray, nets: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """For every pin: (others_lo, others_hi, net_lo, net_hi) on one axis.

        ``others_*`` exclude the pin itself via the top-2 trick (per-net
        smallest / second-smallest and largest / second-largest value);
        ``net_*`` are the full net extents broadcast per pin.  Pins on
        single-pin nets get ``others == own position``, so a move produces
        a zero-span change, which is correct.

        ``nets`` (distinct, ascending) restricts the pass to those nets:
        ``coords`` then holds the values of their pins,
        ``pins_of(nets)``, and so do the arrays returned, each entry
        equal bit for bit to that pin's entry of the full pass (extremes
        are exact, and the sub-pass sees each net's pins in the same
        order, so the bound-pin tie-break picks the same pin).

        This is the shared kernel behind the RAP dHPWL matrix
        (:mod:`repro.core.cost`) and the median-improvement refinement
        (:mod:`repro.placement.incremental`); it replaces their duplicated
        per-axis lexsorts with six segmented passes.
        """
        if nets is not None:
            sub_ptr = np.zeros(len(nets) + 1, dtype=np.int64)
            np.cumsum(self.degrees[nets], out=sub_ptr[1:])
            return NetTopology(sub_ptr, len(coords)).per_pin_other_extents(
                coords
            )
        net_ids = self.net_ids
        lo1, hi1 = self.minmax(coords)
        first, last = self.bound_pins(coords)

        sf = self._scratch_f
        # Second extremes: mask out the single bound-pin occurrence and
        # reduce again; degree-1 nets degenerate to the extreme itself.
        np.copyto(sf, coords)
        sf[first] = np.inf
        lo2 = np.where(self.multi_pin, np.minimum.reduceat(sf, self.starts), lo1)
        np.copyto(sf, coords)
        sf[last] = -np.inf
        hi2 = np.where(self.multi_pin, np.maximum.reduceat(sf, self.starts), hi1)

        lo1p = lo1[net_ids]
        hi1p = hi1[net_ids]
        others_lo = np.where(self.pin_index == first[net_ids], lo2[net_ids], lo1p)
        others_hi = np.where(self.pin_index == last[net_ids], hi2[net_ids], hi1p)
        return others_lo, others_hi, lo1p, hi1p
