"""Row Assignment Problem: the ILP of paper Eqs. (1)-(5) and its solving.

Variables: ``x_cr`` (cluster c assigned to row pair r) and the row
indicators ``y_r`` that linearize Eq. (5)'s ``max_c x_cr``:

* min  sum f_cr x_cr                                   (Eqs. 1-2)
* sum_r x_cr = 1                  for every cluster    (Eq. 3)
* sum_c w(c) x_cr <= w(r) y_r     for every row pair   (Eq. 4, linking)
* y_r <= sum_c x_cr               ("minority row" means hosting a cluster)
* sum_r y_r = N_minR                                   (Eq. 5)

"Row" everywhere means a *pair* of physical rows (N-well sharing rule).

Every function here is height-indexed: inputs are per-class lists, one
entry per minority track of a :class:`~repro.core.heights.HeightSpec`
(the paper's setting is ``K = 1``).  At ``K >= 2`` each class gets its
own Eq. (3)-(5) blocks and a pair carries one track height
(``sum_h y_hr <= 1``).  :func:`solve_rap` solves one instance through
the engine of :mod:`repro.core.sparse_rap` at every ``K``, and
:func:`solve_rap_resilient` wraps it in the solver fallback chain and
the relaxation ladder: one chain at every ``K``, the exact backends and
then a simulated-annealing rung (:func:`anneal_rap`) for instances
where every MILP backend fails.
Each rung attempt runs through :func:`repro.utils.resilience.attempt`,
which checks the deadline, opens the span and records the provenance;
the chain decides only what a failed attempt means.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.sparse_rap import (
    SparseSolveStats,
    _feasible_maps,
    _joint_cost,
    build_rap_model,
    dense_assignment,
    greedy_rap,
    solve_rap_sparse,
    validate_rap_inputs,
)
from repro.solvers.milp import MilpSolution, MilpStatus
from repro.utils.errors import (
    InfeasibleError,
    SolverError,
    StageTimeoutError,
    ValidationError,
)
from repro.utils.resilience import (
    Deadline,
    FlowProvenance,
    ResiliencePolicy,
    attempt,
)

logger = logging.getLogger(__name__)

#: Simulated-annealing iteration budget: base + per-cluster term, capped.
_SA_BASE_ITERATIONS = 2000
_SA_PER_CLUSTER = 150
_SA_MAX_ITERATIONS = 40000


@dataclass(frozen=True)
class RowAssignment:
    """Solution of the RAP.

    ``pair_tracks[p]`` is the track height of pair ``p``.  ``by_track``
    maps each minority track, in spec order, to its class's
    ``(cluster_to_pair, cell_to_pair)``: the pair hosting each of the
    class's clusters, and the same per cell of the class (via its
    cluster label).
    """

    pair_tracks: list[float]
    minority_pairs: np.ndarray
    by_track: dict[float, tuple[np.ndarray, np.ndarray]]
    objective: float
    ilp_runtime_s: float
    num_variables: int
    solver_nodes: int = 0

    @property
    def n_minority_rows(self) -> int:
        return len(self.minority_pairs)


def required_minority_pairs(
    minority_width_total: float, pair_capacity: float, row_fill: float = 1.0
) -> int:
    """Minimum N_minR that can physically hold the minority cells."""
    if pair_capacity <= 0:
        raise ValidationError("pair capacity must be positive")
    usable = pair_capacity * row_fill
    return max(1, int(np.ceil(minority_width_total / usable)))


# ---------------------------------------------------------------------------
# Heuristic fallback: simulated annealing
# ---------------------------------------------------------------------------


def anneal_rap(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    seed: int = 17,
    iterations: int | None = None,
    time_limit_s: float | None = None,
    initial: list[np.ndarray] | None = None,
) -> tuple[list[np.ndarray], float] | None:
    """Simulated-annealing fallback for the RAP, at every ``K``.

    Moves preserve feasibility by construction (per-class budgets, pair
    exclusivity, capacities): single-cluster reassignment within the
    class's open pairs, intra-class cluster swaps, and whole-pair
    relocation to a closed pair.  Deterministic for a given ``seed``.
    Returns ``(per-class assignment, objective)`` of the best state, or
    ``None`` when no feasible starting point exists.
    """
    K = len(f_by_class)
    n_p = len(pair_capacity)
    cap = np.asarray(pair_capacity, dtype=float)
    current = _feasible_maps(
        initial, width_by_class, cap, budgets
    ) or greedy_rap(f_by_class, width_by_class, cap, budgets)
    if current is None:
        return None
    current = [a.copy() for a in current]

    n_cs = [f.shape[0] for f in f_by_class]
    total_clusters = sum(n_cs)
    if iterations is None:
        iterations = min(
            _SA_MAX_ITERATIONS,
            _SA_BASE_ITERATIONS + _SA_PER_CLUSTER * total_clusters,
        )

    load = np.zeros((K, n_p))
    owner = np.full(n_p, -1, dtype=int)  # class index of an open pair
    members: list[dict[int, list[int]]] = []
    for h in range(K):
        per_pair: dict[int, list[int]] = {}
        for c, p in enumerate(current[h]):
            per_pair.setdefault(int(p), []).append(c)
            load[h, int(p)] += width_by_class[h][c]
            owner[int(p)] = h
        members.append(per_pair)

    obj = _joint_cost(f_by_class, current)
    best = [a.copy() for a in current]
    best_obj = obj

    rng = np.random.default_rng(seed)
    scale = float(np.mean([np.std(f) for f in f_by_class])) or 1.0
    t0 = 0.5 * scale
    t_end = max(1e-9, 1e-3 * t0)
    cool = (t_end / t0) ** (1.0 / max(1, iterations))
    temp = t0
    class_p = np.array(n_cs, dtype=float) / total_clusters
    start = time.perf_counter()

    for it in range(iterations):
        if time_limit_s is not None and (it & 0xFF) == 0:
            if time.perf_counter() - start > time_limit_s:
                break
        temp *= cool
        h = int(rng.choice(K, p=class_p))
        f = f_by_class[h]
        w = width_by_class[h]
        open_pairs = list(members[h].keys())
        roll = rng.random()
        if roll < 0.6 and n_cs[h] >= 1 and len(open_pairs) >= 2:
            c = int(rng.integers(n_cs[h]))
            p = int(current[h][c])
            if len(members[h][p]) <= 1:
                continue  # would empty the pair (budget/host violation)
            q = int(open_pairs[int(rng.integers(len(open_pairs)))])
            if q == p or load[h, q] + w[c] > cap[q] + 1e-9:
                continue
            delta = float(f[c, q] - f[c, p])
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                members[h][p].remove(c)
                members[h].setdefault(q, []).append(c)
                load[h, p] -= w[c]
                load[h, q] += w[c]
                current[h][c] = q
                obj += delta
        elif roll < 0.85 and n_cs[h] >= 2:
            c1, c2 = rng.integers(n_cs[h]), rng.integers(n_cs[h])
            c1, c2 = int(c1), int(c2)
            p1, p2 = int(current[h][c1]), int(current[h][c2])
            if p1 == p2:
                continue
            if (
                load[h, p1] - w[c1] + w[c2] > cap[p1] + 1e-9
                or load[h, p2] - w[c2] + w[c1] > cap[p2] + 1e-9
            ):
                continue
            delta = float(
                f[c1, p2] + f[c2, p1] - f[c1, p1] - f[c2, p2]
            )
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                members[h][p1].remove(c1)
                members[h][p2].remove(c2)
                members[h][p1].append(c2)
                members[h][p2].append(c1)
                load[h, p1] += w[c2] - w[c1]
                load[h, p2] += w[c1] - w[c2]
                current[h][c1], current[h][c2] = p2, p1
                obj += delta
        else:
            closed = np.flatnonzero(owner < 0)
            if not len(open_pairs) or not len(closed):
                continue
            p = int(open_pairs[int(rng.integers(len(open_pairs)))])
            q = int(closed[int(rng.integers(len(closed)))])
            if load[h, p] > cap[q] + 1e-9:
                continue
            movers = members[h][p]
            delta = float((f[movers, q] - f[movers, p]).sum())
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                members[h][q] = movers
                del members[h][p]
                load[h, q] = load[h, p]
                load[h, p] = 0.0
                owner[q] = h
                owner[p] = -1
                for c in movers:
                    current[h][c] = q
                obj += delta
        if obj < best_obj - 1e-12:
            best_obj = obj
            best = [a.copy() for a in current]

    best = _feasible_maps(best, width_by_class, cap, budgets)
    if best is None:  # defensive: moves should preserve feasibility
        return None
    return best, _joint_cost(f_by_class, best)


# ---------------------------------------------------------------------------
# One solve
# ---------------------------------------------------------------------------


def solve_rap(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    backend: str = "highs",
    time_limit_s: float | None = None,
    warm_assignment: list[np.ndarray] | None = None,
    candidate_k: int | None = None,
    dirty_clusters: np.ndarray | None = None,
) -> tuple[MilpSolution, list[np.ndarray] | None, SparseSolveStats]:
    """Solve one RAP instance; ``pair_capacity`` is the usable capacity.

    Returns ``(solution, per-class cluster -> pair maps or None, stats)``
    with the solution vector in the dense layout of
    :func:`build_rap_model` (a map entry of ``-1`` marks a cluster the
    solution does not assign exactly once).  The solve is the engine
    :func:`repro.core.sparse_rap.solve_rap_sparse` at every ``K``, which
    also validates the inputs and the backend: ``candidate_k = N_P``
    reproduces the dense model bit for bit, ``stats.certified`` means
    the restricted optimum was proven equal to the full optimum
    (of the row-frozen subproblem, for an ECO repair), and
    ``dirty_clusters`` runs its single-class ECO repair.
    """
    solution, stats = solve_rap_sparse(
        f_by_class, width_by_class, pair_capacity, budgets,
        backend=backend, time_limit_s=time_limit_s,
        warm_assignment=warm_assignment, candidate_k=candidate_k,
        dirty_clusters=dirty_clusters,
    )
    maps = (
        dense_assignment(
            solution.x,
            [np.shape(f)[0] for f in f_by_class],
            len(pair_capacity),
        )
        if solution.ok and solution.x is not None
        else None
    )
    return solution, maps, stats


# ---------------------------------------------------------------------------
# Decode
# ---------------------------------------------------------------------------


def decode_assignment(
    assignment: list[np.ndarray],
    labels_by_class: list[np.ndarray],
    minority_tracks: list[float],
    majority_track: float,
    n_pairs: int,
    objective: float,
    ilp_runtime_s: float = 0.0,
    num_variables: int = 0,
    solver_nodes: int = 0,
) -> RowAssignment:
    """Assemble a :class:`RowAssignment` from per-class cluster maps.

    Raises :class:`InfeasibleError` when a cluster is not assigned to
    exactly one pair (a ``-1`` entry, see :func:`solve_rap`) or two
    classes claim one pair.
    """
    pair_tracks = [majority_track] * n_pairs
    by_track: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    opened_all: list[np.ndarray] = []
    for track, a, labels in zip(minority_tracks, assignment, labels_by_class):
        a = np.asarray(a)
        if np.any(a < 0) or np.any(a >= n_pairs):
            raise InfeasibleError("RAP solution violates unique assignment")
        opened = np.unique(a)
        for p in opened.tolist():
            if pair_tracks[p] != majority_track:
                raise InfeasibleError(
                    f"pair {p} claimed by both {pair_tracks[p]}T and {track}T"
                )
            pair_tracks[p] = track
        by_track[track] = (a, a[labels])
        opened_all.append(opened)
    return RowAssignment(
        pair_tracks=pair_tracks,
        minority_pairs=np.unique(np.concatenate(opened_all)),
        by_track=by_track,
        objective=objective,
        ilp_runtime_s=ilp_runtime_s,
        num_variables=num_variables,
        solver_nodes=solver_nodes,
    )


def repair_assignment(
    base: RowAssignment,
    by_track: dict[float, tuple[np.ndarray, np.ndarray]],
    objective: float,
    runtime_s: float,
    solver_nodes: int = 0,
) -> RowAssignment:
    """Rebind clusters to pairs under the incumbent's *frozen* row map.

    ECO repair (:func:`solve_rap` with ``dirty_clusters=``) moves each
    class's clusters only between the incumbent's pairs of that class's
    track, so the repaired assignment must keep ``base``'s
    ``pair_tracks`` and ``minority_pairs`` verbatim — including a pair
    the repair vacated, which stays a minority pair so the mixed
    floorplan (and every clean cell's row) is unchanged.  Recomputing
    the open-pair set from the new maps (what :func:`decode_assignment`
    does) would silently unfreeze the row map; this constructor makes
    the frozen semantics explicit.  ``by_track`` must keep ``base``'s
    classes and each class's cluster count.
    """
    if list(by_track) != list(base.by_track):
        raise ValidationError(
            "repair must keep the minority classes "
            f"({list(by_track)} vs {list(base.by_track)})"
        )
    tracks = np.asarray(base.pair_tracks, dtype=float)
    for track, (cluster_to_pair, _cells) in by_track.items():
        was = base.by_track[track][0].shape
        if np.shape(cluster_to_pair) != was:
            raise ValidationError(
                f"repair must keep the {track:g}T cluster count "
                f"({np.shape(cluster_to_pair)} vs {was})"
            )
        if not np.isin(cluster_to_pair, np.flatnonzero(tracks == track)).all():
            raise ValidationError(
                f"repair moved a {track:g}T cluster off the incumbent's "
                f"{track:g}T pairs"
            )
    return RowAssignment(
        pair_tracks=list(base.pair_tracks),
        minority_pairs=base.minority_pairs.copy(),
        by_track=dict(by_track),
        objective=float(objective),
        ilp_runtime_s=float(runtime_s),
        num_variables=base.num_variables,
        solver_nodes=solver_nodes,
    )


# ---------------------------------------------------------------------------
# Resilient chain
# ---------------------------------------------------------------------------


def _valid_prior(
    prior: list[np.ndarray] | None, n_clusters: list[int], n_pairs: int
) -> list[np.ndarray] | None:
    """A prior assignment, or None when its shape/range no longer fits."""
    if prior is None or len(prior) != len(n_clusters):
        return None
    out: list[np.ndarray] = []
    for a, n_c in zip(prior, n_clusters):
        a = np.asarray(a, dtype=int)
        if a.shape != (n_c,) or np.any(a < 0) or np.any(a >= n_pairs):
            return None
        out.append(a)
    return out


def solve_rap_resilient(
    f_by_class: list[np.ndarray],
    width_by_class: list[np.ndarray],
    pair_capacity: np.ndarray,
    budgets: list[int],
    labels_by_class: list[np.ndarray],
    minority_tracks: list[float],
    majority_track: float = 6.0,
    backend: str = "highs",
    time_limit_s: float | None = None,
    row_fill: float = 1.0,
    policy: ResiliencePolicy | None = None,
    deadline: Deadline | None = None,
    provenance: FlowProvenance | None = None,
    warm_assignment: list[np.ndarray] | None = None,
    sa_seed: int = 17,
) -> RowAssignment | None:
    """Solve the RAP under a solver fallback chain with relaxation.

    Unlike :func:`solve_rap`, ``pair_capacity`` here is the *raw* pair
    capacity; ``row_fill`` is applied per relaxation level so a failed
    chain can retry with relaxed constraints (``row_fill`` → 1.0 first,
    then every class's N_minR bumped while pairs remain).

    Every exact rung is seeded with ``warm_assignment`` (e.g. the
    previous solve's per-class cluster -> pair maps) when it still fits,
    else with the greedy heuristic.  The rungs are the policy's one
    chain (:meth:`~repro.utils.resilience.ResiliencePolicy.backends`),
    the same at every ``K``: the exact backends, then a
    simulated-annealing rung (:func:`anneal_rap` seeded with
    ``sa_seed``, recorded as ``backend="sa"`` and flagged degraded) so
    instances where every MILP rung fails still place.  The rungs run
    one after another; a ``backend`` that is no exact backend raises
    :class:`ValidationError` before any of them.

    Every attempt runs through :func:`~repro.utils.resilience.attempt`,
    which records it into ``provenance``; what a failure means is
    decided here:

    * a raised :class:`SolverError` / :class:`ValidationError` → retry
      the rung, up to the policy's ``max_attempts``;
    * an ``INFEASIBLE`` status or a raised :class:`InfeasibleError` →
      next relaxation level (infeasibility is deterministic, so retrying
      the same model is pointless);
    * an answer with no incumbent, or one that does not decode → next
      rung (a retry would return the same answer);
    * every rung and level failed → ``None`` (the caller's terminal rung
      is the baseline heuristic assignment);
    * deadline expired → :class:`StageTimeoutError` with the provenance
      accumulated so far attached.

    On success the provenance's ``backend`` / ``degraded`` fields are
    set.
    """
    if policy is None:
        # Local import: repro.core.params imports this module (via
        # repro.core.heights).
        from repro.core.params import RCPPParams

        policy = ResiliencePolicy.from_params(RCPPParams())
    rungs = policy.backends(backend)
    deadline = deadline or Deadline.unlimited()
    prov = provenance if provenance is not None else FlowProvenance()
    if prov.requested_backend is None:
        prov.requested_backend = backend
    n_p = len(pair_capacity)
    num_variables = sum(f.size for f in f_by_class) + len(f_by_class) * n_p

    levels: list[tuple[float, list[int], str | None]] = [
        (row_fill, list(budgets), None)
    ]
    if row_fill < 1.0:
        levels.append((1.0, list(budgets), "row_fill->1.0"))
    for extra in (1, 2):
        bumped = [b + extra for b in budgets]
        if sum(bumped) <= n_p:
            levels.append((1.0, bumped, f"n_min_rows+{extra}"))

    prior = _valid_prior(
        warm_assignment, [f.shape[0] for f in f_by_class], n_p
    )

    for fill, level_budgets, relaxation in levels:
        usable = pair_capacity * fill
        try:
            validate_rap_inputs(
                f_by_class, width_by_class, usable, level_budgets
            )
        except InfeasibleError:
            continue  # not even modellable at this level; escalate
        if relaxation is not None:
            prov.relaxations.append(relaxation)
            logger.info("RAP escalating relaxation: %s", relaxation)
        escalate = False
        for rung in rungs:
            stage = f"rap.{rung}"
            max_attempts = 1 if rung == "sa" else policy.max_attempts
            for n in range(1, max_attempts + 1):
                # Set once the rung returned a non-infeasible answer: a
                # failure after that is the answer's, not the solver's.
                answered = False
                try:
                    with attempt(
                        prov, policy, deadline, stage, rung, n, relaxation,
                        backend=rung, attempt=n,
                    ) as sp:
                        if rung == "sa":
                            solution = None
                            annealed = anneal_rap(
                                f_by_class, width_by_class, usable,
                                level_budgets, seed=sa_seed,
                                time_limit_s=deadline.clamp(time_limit_s),
                                initial=prior,
                            )
                            if annealed is None:
                                raise InfeasibleError(
                                    "SA found no feasible start"
                                )
                            maps, objective = annealed
                        else:
                            # A cheap incumbent when there is no prior:
                            # it seeds the engine's reduced-cost fixing
                            # and the exact backend's search.
                            warm = prior or greedy_rap(
                                f_by_class, width_by_class, usable,
                                level_budgets,
                            )
                            solution, maps, stats = solve_rap(
                                f_by_class,
                                width_by_class,
                                usable,
                                level_budgets,
                                backend=rung,
                                time_limit_s=deadline.clamp(time_limit_s),
                                warm_assignment=warm,
                            )
                            sp.annotate(
                                sparse_rounds=stats.rounds,
                                sparse_k=stats.k_final,
                                sparse_candidates=stats.n_candidates,
                                sparse_certified=stats.certified,
                            )
                            if solution.status is MilpStatus.INFEASIBLE:
                                raise InfeasibleError("model infeasible")
                            objective = solution.objective
                        answered = True
                        if maps is None:
                            raise SolverError(
                                "no incumbent "
                                f"(status {solution.status.value})"
                            )
                        assignment = decode_assignment(
                            maps,
                            labels_by_class,
                            minority_tracks,
                            majority_track,
                            n_p,
                            objective=objective,
                            ilp_runtime_s=(
                                solution.runtime_s if solution is not None
                                else sp.elapsed()
                            ),
                            num_variables=num_variables,
                            solver_nodes=(
                                solution.nodes if solution is not None else 0
                            ),
                        )
                except StageTimeoutError:
                    raise
                except InfeasibleError:
                    # An infeasible model escalates the relaxation; an
                    # answer that does not decode distrusts this rung.
                    escalate = not answered
                    break
                except (SolverError, ValidationError) as exc:
                    if answered:
                        break  # no incumbent: a retry returns the same
                    logger.warning(
                        "RAP rung %s attempt %d failed: %s", rung, n, exc
                    )
                    continue
                prov.backend = rung
                prov.degraded = rung != backend or relaxation is not None
                return assignment
            if escalate:
                break
        if not escalate:
            # Every rung failed for non-infeasibility reasons; relaxation
            # cannot fix that.  Hand over to the caller's terminal rung.
            logger.warning(
                "RAP solver chain %s exhausted; caller falls back", rungs
            )
            return None
    logger.warning("RAP relaxation ladder exhausted; caller falls back")
    return None
