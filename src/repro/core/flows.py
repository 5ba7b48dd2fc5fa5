"""The five placement flows of Table III.

===== ================== =========================
Flow  Row assignment      Legalization
===== ================== =========================
(1)   none (mLEF)         none (unconstrained)
(2)   Lin & Chang [10]    [10] row-constraint Abacus
(3)   Lin & Chang [10]    proposed fence-region
(4)   proposed ILP        [10] row-constraint Abacus
(5)   proposed ILP        proposed fence-region
===== ================== =========================

:class:`FlowRunner` owns one shared unconstrained initial placement and
caches the two row assignments, so flow comparisons are apples-to-apples:
all flows start from the same placement, and N_minR of the ILP flows is
forced to the baseline flow's value (the paper's fairness rule).
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field

import numpy as np

from repro.core.baseline import baseline_row_assignment
from repro.core.clustering import cluster_minority_cells
from repro.core.cost import ClassCosts, compute_rap_costs
from repro.core.heights import HeightSpec, resolve_heights
from repro.core.legalize_abacus_rc import abacus_rc_legalize
from repro.core.legalize_rc import fence_region_legalize
from repro.core.params import RCPPParams
from repro.core.rap import RowAssignment, solve_rap_resilient
from repro.netlist.db import Design
from repro.obs.events import emitting_events, record_qor
from repro.obs.trace import span
from repro.placement.db import Floorplan, PlacedDesign
from repro.placement.floorplanner import (
    build_placed_design,
    make_floorplan,
    make_mixed_floorplan,
    map_uniform_to_mixed,
)
from repro.placement.global_place import global_place
from repro.placement.hpwl import hpwl_total
from repro.placement.incremental import refine_detailed
from repro.placement.legalize import abacus_legalize
from repro.techlib.cells import StdCellLibrary
from repro.techlib.mlef import MLefTransform, make_mlef_library
from repro.utils.errors import (
    ReproError,
    SolverError,
    StageTimeoutError,
    ValidationError,
)
from repro.utils.resilience import (
    Deadline,
    FaultPlan,
    FlowProvenance,
    ResiliencePolicy,
    attempt,
)
from repro.utils.timer import StageTimes

logger = logging.getLogger(__name__)

#: Fraction of the remaining flow budget the row-assignment stage may
#: spend when the flow runs under a deadline.  The RAP engine treats
#: its time limit as a total wall budget and consumes all of it on hard
#: instances; without this reserve the legalization stages that follow
#: (cheap, but not free) would meet an already-expired deadline and the
#: whole flow would time out seconds from the finish line.
ROW_ASSIGN_BUDGET_FRACTION = 0.9


class FlowKind(enum.Enum):
    """The five flows; value matches the paper's flow number."""

    FLOW1 = 1
    FLOW2 = 2
    FLOW3 = 3
    FLOW4 = 4
    FLOW5 = 5

    @property
    def row_assignment(self) -> str | None:
        return {1: None, 2: "baseline", 3: "baseline", 4: "ilp", 5: "ilp"}[
            self.value
        ]

    @property
    def legalization(self) -> str | None:
        return {1: None, 2: "abacus_rc", 3: "fence", 4: "abacus_rc", 5: "fence"}[
            self.value
        ]


@dataclass
class InitialPlacement:
    """The shared Flow-(1) artifact every constrained flow starts from.

    ``heights`` is the resolved spec it was prepared for, and
    ``class_indices`` / ``class_widths_original`` carry every minority
    class keyed by track, in spec order.  ``revision`` counts the
    in-place edits of ``placed`` (ECO deltas): :attr:`hpwl` and a
    runner's stored RAP instance describe one revision.
    """

    design: Design
    library: StdCellLibrary
    mlef: MLefTransform
    floorplan: Floorplan
    placed: PlacedDesign  # mLEF-frame geometry snapshot
    times: StageTimes
    pair_center_y: np.ndarray
    pair_capacity: np.ndarray
    heights: HeightSpec
    class_indices: dict[float, np.ndarray]
    #: Un-mLEF widths per class (the capacity rule's input).
    class_widths_original: dict[float, np.ndarray]
    revision: int = 0
    _hpwl: tuple[int, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def hpwl(self) -> float:
        """HPWL of ``placed``, computed on the first read of a revision."""
        if self._hpwl is None or self._hpwl[0] != self.revision:
            self._hpwl = (self.revision, hpwl_total(self.placed))
        return self._hpwl[1]

    def classes(self) -> dict[float, tuple[np.ndarray, np.ndarray]]:
        """Track -> (instance indices, original widths), every class."""
        return {
            t: (indices, self.class_widths_original[t])
            for t, indices in self.class_indices.items()
        }


@dataclass
class FlowResult:
    """Post-placement outcome of one flow (Table IV row fragment)."""

    kind: FlowKind
    hpwl: float
    displacement: float
    times: StageTimes
    placed: PlacedDesign
    assignment: RowAssignment | None
    n_minority_rows: int
    n_clusters: int = 0
    provenance: FlowProvenance = field(default_factory=FlowProvenance)

    @property
    def total_runtime_s(self) -> float:
        return self.times.total

    @property
    def degraded(self) -> bool:
        """True when a fallback rung / relaxation produced this result."""
        return self.provenance.degraded


def prepare_initial_placement(
    design: Design,
    library: StdCellLibrary,
    utilization: float = 0.60,
    aspect_ratio: float = 1.0,
    heights: HeightSpec | None = None,
) -> InitialPlacement:
    """mLEF + floorplan + global place + legalize: the Flow-(1) placement.

    On return the design's masters are back to the originals; the returned
    ``placed`` snapshot retains the mLEF geometry it was placed with.

    Every minority class of ``heights`` is located and recorded per
    track; ``None`` means the paper's setting
    (:func:`~repro.core.heights.resolve_heights`).
    """
    heights = resolve_heights(heights, library.track_heights)
    logger.info(
        "preparing initial placement: %d cells, minority track(s) %s",
        design.num_instances,
        "/".join(f"{t:g}T" for t in heights.minority_tracks),
    )
    with span(
        "prepare_initial_placement", n_cells=design.num_instances
    ) as root:
        result = _prepare_initial_placement(
            design,
            library,
            utilization=utilization,
            aspect_ratio=aspect_ratio,
            heights=heights,
        )
        root.annotate(hpwl=result.hpwl)
    record_qor(
        "initial_place",
        hpwl=result.hpwl,
        n_cells=design.num_instances,
        n_minority=sum(len(i) for i in result.class_indices.values()),
    )
    logger.info("initial placement done: HPWL %.4g", result.hpwl)
    return result


def _prepare_initial_placement(
    design: Design,
    library: StdCellLibrary,
    utilization: float,
    aspect_ratio: float,
    heights: HeightSpec,
) -> InitialPlacement:
    times = StageTimes()
    class_indices: dict[float, np.ndarray] = {}
    class_widths: dict[float, np.ndarray] = {}
    for track in heights.minority_tracks:
        mask = np.array(design.minority_mask(track))
        if not mask.any():
            raise ValidationError(
                f"design has no {track}T cells; nothing to row-constrain"
            )
        class_indices[track] = np.flatnonzero(mask)
        class_widths[track] = np.array(
            [
                design.instances[i].master.width
                for i in class_indices[track]
            ],
            dtype=float,
        )

    with times.measure("mlef"):
        mlef = make_mlef_library(library, design.area_by_track())
        design.allow_library(mlef.mlef_library)
        for inst in design.instances:
            inst.master = mlef.mlef(inst.master.name)

    with times.measure("initial_place"):
        floorplan = make_floorplan(
            design,
            row_height=mlef.height,
            site_width=library.site_width,
            utilization=utilization,
            aspect_ratio=aspect_ratio,
        )
        placed = build_placed_design(design, floorplan)
        global_place(placed)
        abacus_legalize(placed, floorplan.rows)
        if emitting_events():
            # Pre-refinement snapshot: the raw global-place quality the
            # detailed polish below is judged against.
            record_qor(
                "global_place",
                hpwl=hpwl_total(placed),
                legality_violations=len(placed.check_legal()),
            )
        # Detailed-placement polish: a commercial initial placement (the
        # paper's Innovus run) ends optimized; without this the constrained
        # flows would unfairly beat the unconstrained baseline.
        refine_detailed(placed, rounds=6)

    # Revert to the original masters; the mLEF geometry lives on in the
    # ``placed`` snapshot arrays.
    for inst in design.instances:
        inst.master = mlef.original(inst.master.name)

    pairs = floorplan.row_pairs()
    return InitialPlacement(
        design=design,
        library=library,
        mlef=mlef,
        floorplan=floorplan,
        placed=placed,
        times=times,
        pair_center_y=np.array([p.center_y for p in pairs]),
        pair_capacity=np.array([float(p.capacity_width) for p in pairs]),
        heights=heights,
        class_indices=class_indices,
        class_widths_original=class_widths,
    )


@dataclass
class RapStore:
    """A runner's RAP instance: one :class:`ClassCosts` per class in spec
    order, for clustering resolution ``s`` at initial ``revision``."""

    s: float
    revision: int
    classes: list[ClassCosts]


class FlowRunner:
    """Runs flows (1)-(5) off one shared initial placement.

    Resilient execution (fallback chain, retries) follows ``params``
    (:meth:`ResiliencePolicy.from_params`); ``fault_plan`` injects
    deterministic failures for degradation tests.
    """

    def __init__(
        self,
        initial: InitialPlacement,
        params: RCPPParams | None = None,
        *,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.initial = initial
        self.params = params or RCPPParams()
        self.policy = ResiliencePolicy.from_params(self.params, fault_plan)
        spec = self.params.heights or initial.heights
        if set(spec.minority_tracks) != set(initial.heights.minority_tracks):
            raise ValidationError(
                "params/initial height spec mismatch: "
                f"{spec.minority_tracks} vs {initial.heights.minority_tracks}"
            )
        lib_tracks = set(initial.library.track_heights)
        missing = set(spec.tracks) - lib_tracks
        if missing:
            raise ValidationError(
                f"library lacks spec tracks {sorted(missing)} "
                f"(has {sorted(lib_tracks)})"
            )
        self.majority_track = spec.majority
        self.spec = spec
        classes = initial.classes()
        #: (track, instance indices, original widths) in spec order.
        self._classes: list[tuple[float, np.ndarray, np.ndarray]] = [
            (t, classes[t][0], classes[t][1]) for t in spec.minority_tracks
        ]
        self._baseline: tuple[RowAssignment, float] | None = None
        self._ilp: (
            tuple[RowAssignment, float, float, int, FlowProvenance] | None
        ) = None
        # Last successful per-class cluster -> pair maps; warm-starts the
        # next RAP solve on this runner (e.g. after
        # invalidate_assignments()).
        self._rap_warm: list[np.ndarray] | None = None
        # The RAP instance of the last ILP solve: per-class clustering
        # labels and Eq. (2) rows, keyed by (s, initial revision).
        # Streaming ECO maps delta-touched cells to dirty clusters through
        # its labels and keeps its rows current across deltas.
        self._rap: RapStore | None = None

    def invalidate_assignments(self) -> None:
        """Drop the cached row assignments so the next call re-solves.

        The warm-start seed (``_rap_warm``) survives on purpose: a
        re-solve after a parameter tweak starts from the previous
        solution instead of cold-starting.
        """
        self._baseline = None
        self._ilp = None

    def run_eco(self, delta, incumbent):
        """Incrementally repair ``incumbent`` after ``delta``.

        Streaming-ECO entry point (see :mod:`repro.eco`): applies the
        netlist delta to this runner's cached initial placement, repairs
        the row assignment via dirty-cluster restricted pricing under
        the incumbent's frozen row map, and re-legalizes only the
        affected row windows.  Returns an :class:`repro.eco.EcoResult`;
        falls back to a full resilient re-run (labeled degraded) when
        the incremental path cannot certify.
        """
        from repro.eco import run_eco

        return run_eco(self, delta, incumbent)

    # -- row assignments (cached) -----------------------------------------

    @property
    def row_budgets(self) -> dict[float, int]:
        """Per-class row-pair budget (track -> N_minR), spec-resolved."""
        return self.spec.budgets(
            {t: float(w.sum()) for t, _, w in self._classes},
            float(self.initial.pair_capacity.min()),
        )

    @property
    def n_minority_rows(self) -> int:
        """N_minR: forced value, else derived from minority area (= Flow 2).

        The total over all classes; the per-class split is
        :attr:`row_budgets`.
        """
        return sum(self.row_budgets.values())

    def baseline_assignment(self) -> tuple[RowAssignment, float]:
        """[10]-style assignment and its runtime (seconds)."""
        if self._baseline is None:
            init = self.initial
            times = StageTimes()
            with times.measure("row_assign"):
                budgets = self.row_budgets
                assignment = baseline_row_assignment(
                    [
                        init.placed.y[i] + init.placed.heights[i] / 2.0
                        for _, i, _ in self._classes
                    ],
                    [w for _, _, w in self._classes],
                    init.pair_center_y,
                    init.pair_capacity,
                    [budgets[t] for t, _, _ in self._classes],
                    [t for t, _, _ in self._classes],
                    majority_track=self.majority_track,
                    row_fill=self.params.row_fill,
                )
            self._baseline = (assignment, times.total)
        return self._baseline

    def _row_assign_deadline(self, deadline: Deadline) -> Deadline:
        """Row-assign stage deadline, reserving budget for legalization."""
        remaining = deadline.remaining()
        if remaining is None:
            return deadline
        return deadline.sub(remaining * ROW_ASSIGN_BUDGET_FRACTION)

    def ilp_assignment(
        self, deadline: Deadline | None = None
    ) -> tuple[RowAssignment, float, float, int, FlowProvenance]:
        """ILP assignment: (assignment, cluster_s, ilp_s, n_clusters, prov).

        Runs the solver fallback chain of ``self.policy``; when every
        solver rung fails, the terminal rung is the baseline heuristic
        assignment (recorded as degraded).  Raises
        :class:`StageTimeoutError` when ``deadline`` (or the params
        budget) expires, and :class:`SolverError` with the provenance
        attached when even the baseline rung cannot produce an answer.
        """
        if self._ilp is None:
            params = self.params
            if deadline is None:
                deadline = Deadline(params.time_budget_s)
            times = StageTimes()
            prov = FlowProvenance(
                requested_backend=params.solver_backend,
                budget_s=deadline.budget_s,
            )
            assignment, n_clusters = self._solve_ilp(prov, deadline, times)
            self._ilp = (
                assignment,
                times.stages["clustering"],
                times.stages["rap_ilp"],
                n_clusters,
                prov,
            )
        return self._ilp

    def _cluster_classes(self) -> list[ClassCosts]:
        """Per-class clustering + Eq. (2) rows, stored as the runner's
        RAP instance."""
        init = self.initial
        classes = []
        for _track, indices, widths in self._classes:
            cx = init.placed.x[indices] + init.placed.widths[indices] / 2.0
            cy = init.placed.y[indices] + init.placed.heights[indices] / 2.0
            clustering = cluster_minority_cells(cx, cy, self.params.s)
            costs = compute_rap_costs(
                init.placed,
                indices,
                clustering.labels,
                clustering.n_clusters,
                init.pair_center_y,
                widths,
            )
            classes.append(
                ClassCosts(
                    clustering.labels,
                    costs.disp,
                    costs.dhpwl,
                    costs.cluster_width,
                )
            )
        self._rap = RapStore(self.params.s, init.revision, classes)
        return classes

    def _solve_ilp(
        self,
        prov: FlowProvenance,
        deadline: Deadline,
        times: StageTimes,
    ) -> tuple[RowAssignment, int]:
        """Per-class clustering + the resilient RAP solve."""
        params = self.params
        budgets = self.row_budgets
        with times.measure("clustering"):
            classes = self._cluster_classes()
            f_by = [c.combine(params.alpha) for c in classes]
        with times.measure("rap_ilp"):
            assignment = solve_rap_resilient(
                f_by,
                [c.cluster_width for c in classes],
                self.initial.pair_capacity,
                [budgets[t] for t, _, _ in self._classes],
                [c.labels for c in classes],
                [t for t, _, _ in self._classes],
                majority_track=self.majority_track,
                backend=params.solver_backend,
                time_limit_s=params.solver_time_limit_s,
                row_fill=params.row_fill,
                policy=self.policy,
                deadline=self._row_assign_deadline(deadline),
                provenance=prov,
                warm_assignment=self._rap_warm,
                sa_seed=params.seed,
            )
            if assignment is None:
                if not self.policy.fallback_enabled:
                    failed = prov.attempts[-1] if prov.attempts else None
                    raise SolverError(
                        "row assignment failed and fallback is disabled"
                        + (f": [{failed.error_type}] {failed.error}"
                           if failed else ""),
                        provenance=prov,
                    )
                assignment = self._baseline_rung(prov, deadline)
            else:
                self._rap_warm = [
                    assignment.by_track[t][0] for t, _, _ in self._classes
                ]
        return assignment, sum(len(f) for f in f_by)

    def rap_instance(
        self,
    ) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, list[int]]:
        """The RAP instance of this runner's ILP configuration.

        The instance the runner's last ILP solve used, as ECO repairs
        have kept it; clustering and cost assembly run only when the
        runner holds none for its current ``s`` and initial placement.
        Returns ``(f_by_class, width_by_class, usable_capacity,
        budgets)``, per class in spec order with the ``row_fill``
        capacity derating applied: exactly the arguments
        :func:`~repro.core.rap.solve_rap` and
        :func:`~repro.core.rap.build_rap_model` take.  ``repro report``
        cross-solves it with every RAP backend for convergence
        telemetry.
        """
        store = self._rap
        if (
            store is None
            or store.s != self.params.s
            or store.revision != self.initial.revision
        ):
            classes = self._cluster_classes()
        else:
            classes = store.classes
        budgets = self.row_budgets
        return (
            [c.combine(self.params.alpha) for c in classes],
            [c.cluster_width.copy() for c in classes],
            self.initial.pair_capacity * self.params.row_fill,
            [budgets[t] for t in self.spec.minority_tracks],
        )

    def _baseline_rung(
        self, prov: FlowProvenance, deadline: Deadline
    ) -> RowAssignment:
        """Terminal fallback: the [10]-style heuristic assignment.

        A feasible heuristic answer beats no answer; the result is
        explicitly flagged degraded so Table IV-style comparisons never
        silently mix exact and heuristic rows.
        """
        try:
            with attempt(
                prov, self.policy, deadline, "rap.baseline", "baseline",
                backend="baseline",
            ):
                assignment, _ = self.baseline_assignment()
        except StageTimeoutError:
            raise
        except ReproError as exc:
            raise SolverError(
                "row assignment failed on every rung "
                f"(chain {self.policy.backends(self.params.solver_backend)} "
                f"+ baseline): {exc}",
                provenance=prov,
            ) from exc
        prov.backend = "baseline"
        prov.degraded = True
        return assignment

    # -- flow execution -----------------------------------------------------

    def _build_mixed_placement(
        self, assignment: RowAssignment
    ) -> PlacedDesign:
        """Original-master placement in the mixed frame, positions mapped."""
        init = self.initial
        heights = {
            t: init.library.row_height(t) for t in init.library.track_heights
        }
        mixed_fp, _ = make_mixed_floorplan(
            init.floorplan, assignment.pair_tracks, heights
        )
        placed = build_placed_design(init.design, mixed_fp)
        # Map positions center-to-center between frames.
        mlef_cx = init.placed.x + init.placed.widths / 2.0
        mlef_cy = init.placed.y + init.placed.heights / 2.0
        new_cy = map_uniform_to_mixed(mlef_cy, init.floorplan, mixed_fp)
        placed.x = mlef_cx - placed.widths / 2.0
        placed.y = new_cy - placed.heights / 2.0
        return placed

    def run(self, kind: FlowKind) -> FlowResult:
        """Execute one flow and return its post-placement metrics.

        The flow runs under one ``flow.<n>`` span.
        """
        logger.info("running flow (%d)", kind.value)
        with span(f"flow.{kind.value}", flow=kind.value):
            result = self._run(kind)
        logger.info(
            "flow (%d) done: HPWL %.4g, displacement %.4g, %.3fs%s",
            kind.value, result.hpwl, result.displacement,
            result.total_runtime_s,
            " [degraded]" if result.degraded else "",
        )
        return result

    def _run(self, kind: FlowKind) -> FlowResult:
        init = self.initial
        if kind is FlowKind.FLOW1:
            # Copy: callers mutating the Flow-(1) result must not corrupt
            # the cached initial placement every other flow starts from.
            return FlowResult(
                kind=kind,
                hpwl=init.hpwl,
                displacement=0.0,
                times=StageTimes(dict(init.times.stages)),
                placed=init.placed.copy(),
                assignment=None,
                n_minority_rows=0,
            )

        deadline = Deadline(self.params.time_budget_s)
        times = StageTimes()
        n_clusters = 0
        if kind.row_assignment == "baseline":
            assignment, ra_seconds = self.baseline_assignment()
            times.add("row_assign", ra_seconds)
            prov = FlowProvenance(
                requested_backend="baseline",
                backend="baseline",
                budget_s=deadline.budget_s,
            )
        else:
            assignment, cluster_s, ilp_s, n_clusters, row_prov = (
                self.ilp_assignment(deadline)
            )
            times.add("clustering", cluster_s)
            times.add("rap_ilp", ilp_s)
            prov = row_prov.clone()
            prov.budget_s = deadline.budget_s

        record_qor(
            f"flow{kind.value}.row_assign",
            n_minority_rows=assignment.n_minority_rows,
            n_clusters=n_clusters,
            n_height_classes=len(self._classes),
        )
        placed, result = self._legalize_resilient(
            kind, assignment, prov, deadline
        )
        final_times = times.merged(result.times)
        final_hpwl = hpwl_total(placed)
        if emitting_events():
            record_qor(
                f"flow{kind.value}.final",
                hpwl=final_hpwl,
                displacement=result.displacement,
                runtime_s=final_times.total,
                legality_violations=len(placed.check_legal()),
            )
        return FlowResult(
            kind=kind,
            hpwl=final_hpwl,
            displacement=result.displacement,
            times=final_times,
            placed=placed,
            assignment=assignment,
            n_minority_rows=assignment.n_minority_rows,
            n_clusters=n_clusters,
            provenance=prov,
        )

    def _run_legalizer(
        self,
        name: str,
        placed: PlacedDesign,
        assignment: RowAssignment,
        deadline: Deadline,
    ):
        if name == "abacus_rc":
            return abacus_rc_legalize(
                placed,
                {
                    t: (indices, assignment.by_track[t][1])
                    for t, indices, _ in self._classes
                },
            )
        return fence_region_legalize(
            placed,
            {t: indices for t, indices, _ in self._classes},
            refine_iterations=self.params.refine_iterations,
            deadline=deadline,
        )

    def _legalize_resilient(
        self,
        kind: FlowKind,
        assignment: RowAssignment,
        prov: FlowProvenance,
        deadline: Deadline,
    ):
        """Legalize with a one-rung fallback to the other legalizer.

        A capacity overflow in the strict per-pair Abacus step falls back
        to the fence-region legalizer (minority cells may use the union
        of minority rows, so it has strictly more slack), and vice versa.
        Each rung starts from a freshly built placement because a failed
        legalizer leaves it partially mutated.
        """
        primary = kind.legalization
        fallback = "fence" if primary == "abacus_rc" else "abacus_rc"
        rungs = (primary, fallback)
        if not self.policy.fallback_enabled:
            rungs = (primary,)
        for name in rungs:
            placed = self._build_mixed_placement(assignment)
            reference = placed.clone_positions() if emitting_events() else None
            try:
                with attempt(
                    prov, self.policy, deadline, f"legalize.{name}", name,
                    legalizer=name,
                ):
                    result = self._run_legalizer(
                        name, placed, assignment, deadline
                    )
            except StageTimeoutError:
                raise
            except ReproError as exc:
                if name != rungs[-1]:
                    logger.warning(
                        "legalizer %s failed (%s); falling back to %s",
                        name, type(exc).__name__, fallback,
                    )
                    continue
                if isinstance(exc, SolverError) and exc.provenance is None:
                    exc.provenance = prov
                raise
            prov.legalizer = name
            if name != primary:
                prov.degraded = True
            self._record_legalize_qor(kind, name, placed, reference)
            return placed, result

    def _record_legalize_qor(
        self,
        kind: FlowKind,
        legalizer: str,
        placed: PlacedDesign,
        reference: tuple[np.ndarray, np.ndarray] | None,
    ) -> None:
        """QoR snapshot after one legalization pass (telemetry-only).

        ``reference`` is the pre-legalization position snapshot; total and
        max per-cell displacement are measured against it.
        """
        if reference is None or not emitting_events():
            return
        x0, y0 = reference
        per_cell = np.abs(placed.x - x0) + np.abs(placed.y - y0)
        record_qor(
            f"flow{kind.value}.legalize.{legalizer}",
            hpwl=hpwl_total(placed),
            displacement_total=float(per_cell.sum()),
            displacement_max=float(per_cell.max()) if len(per_cell) else 0.0,
            legality_violations=len(placed.check_legal()),
        )


def run_flow(
    kind: FlowKind,
    initial: InitialPlacement,
    config: "RunConfig | None" = None,
) -> FlowResult:
    """One-shot convenience wrapper around :class:`FlowRunner`.

    ``config`` supplies the method parameters and fault plan; ``None``
    runs the defaults.
    """
    from repro.core.config import RunConfig

    if config is None:
        config = RunConfig()
    elif not isinstance(config, RunConfig):
        raise TypeError(
            f"run_flow takes a RunConfig, got {type(config).__name__}"
        )
    return FlowRunner(
        initial, config.params, fault_plan=config.fault_plan
    ).run(kind)
