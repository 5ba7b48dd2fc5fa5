"""The unified run configuration shared by flows, experiments, sweeps, CLI.

Before this module every entry point re-declared ``--scale-denom``,
``--seed``, ``--alpha``, ``--s`` and ``--budget-s`` with drifting
defaults.  :class:`RunConfig` is the single source of truth: testcase
scale, method parameters (:class:`~repro.core.params.RCPPParams`),
fault plan, base seed and worker count — consumed by
``run_testcase``, every experiment entry point, ``run_flow``, the sweep
engine and every CLI subcommand (:func:`add_run_config_args` /
:meth:`RunConfig.from_args`).  It is their only configuration input;
``docs/API.md`` maps the keywords removed in 2.0 to their ``RunConfig``
/ ``HeightSpec`` form.
"""

from __future__ import annotations

import argparse
import dataclasses
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.heights import HeightSpec, resolve_heights
from repro.core.params import RCPPParams
from repro.solvers.milp import MILP_BACKENDS
from repro.utils.errors import ValidationError
from repro.utils.resilience import FaultPlan

if TYPE_CHECKING:
    from repro.techlib.cells import StdCellLibrary

#: Default experiment scale: 1/24 of the paper's cell counts keeps a full
#: 26-testcase sweep tractable in pure Python (canonical value; the
#: experiments package re-exports it).
DEFAULT_SCALE = 1.0 / 24.0

#: ``RCPPParams`` height keys removed in 2.0, with the value every earlier
#: :meth:`RunConfig.to_dict` wrote for them when unset.
_REMOVED_HEIGHT_KEYS = {
    "minority_track": 7.5,
    "minority_fill_target": 0.6,
    "n_minority_rows": None,
}

#: ``RCPPParams`` knobs removed in 9.0, with their former defaults: the
#: flows now always run k-means for 60 iterations and let the RAP engine
#: choose its candidate count, so only these values rebuild a placement.
_REMOVED_IN_9_KEYS = {
    "kmeans_max_iterations": 60,
    "rap_candidates": None,
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs beyond the testcase itself.

    * ``scale`` — fraction of the paper's cell counts to generate
      (``1 / scale_denom`` on the CLI).
    * ``params`` — the method's :class:`RCPPParams` (alpha, s, solver
      backend, ``time_budget_s``, the fallback and retry knobs, ...).
    * ``fault_plan`` — optional :class:`FaultPlan` for degradation tests.
    * ``seed`` — base seed mixed into per-job seeds by the sweep engine;
      ``None`` keeps the testcase-derived seeds.
    * ``workers`` — process count for sweep execution (1 = inline).
    * ``utilization`` / ``aspect_ratio`` — floorplan knobs of the initial
      placement.
    """

    scale: float = DEFAULT_SCALE
    params: RCPPParams = field(default_factory=RCPPParams)
    fault_plan: FaultPlan | None = None
    seed: int | None = None
    workers: int = 1
    utilization: float = 0.60
    aspect_ratio: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValidationError("scale must be positive")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        if not (0.0 < self.utilization <= 1.0):
            raise ValidationError("utilization must be in (0, 1]")
        if self.aspect_ratio <= 0:
            raise ValidationError("aspect_ratio must be positive")

    @property
    def scale_denom(self) -> float:
        return 1.0 / self.scale

    def replace(self, **changes: object) -> "RunConfig":
        """Functional update (``dataclasses.replace`` convenience)."""
        return dataclasses.replace(self, **changes)

    def job_seed(self, testcase_id: str, flow: int) -> int:
        """Deterministic per-job seed: stable across runs and machines."""
        base = self.seed if self.seed is not None else 0
        return zlib.crc32(f"{testcase_id}:{flow}:{base}".encode()) & 0x7FFFFFFF

    # -- content hashing (artifact cache key material) ---------------------

    def initial_placement_fingerprint(self, library: StdCellLibrary) -> dict:
        """The config facets that determine ``prepare_initial_placement``
        on ``library``.

        Only fields that change the shared Flow-(1) artifact belong here;
        solver/legalization knobs deliberately do not, so all flows of one
        testcase share a cache entry.  The height spec enters resolved and
        whole, budgets included: the artifact carries it, and a runner
        without ``params.heights`` takes its row budgets from there.
        """
        heights = resolve_heights(self.params.heights, library.track_heights)
        return {
            "scale": self.scale,
            "seed": self.seed,
            "utilization": self.utilization,
            "aspect_ratio": self.aspect_ratio,
            "heights": heights.to_dict(),
        }

    def to_dict(self) -> dict:
        """JSON-able snapshot for sweep reports (the fault plan is not
        part of it)."""
        return {
            "scale": self.scale,
            "scale_denom": self.scale_denom,
            "seed": self.seed,
            "workers": self.workers,
            "utilization": self.utilization,
            "aspect_ratio": self.aspect_ratio,
            "params": dataclasses.asdict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Rebuild from a :meth:`to_dict` snapshot (the ``policy`` key of
        snapshots written before 6.0 is ignored).

        Snapshots written before 2.0 carry the removed two-height keys,
        and 8.x snapshots the two knobs removed in 9.0
        (``kmeans_max_iterations``, ``rap_candidates``).  Their defaults
        load as today's setting; any other value raises rather than
        rebuild a different placement.  Parameters that
        :class:`RCPPParams` rejects raise too, among them a 9.x
        snapshot's heuristic ``solver_backend`` (removed in 10.0).
        Other unknown parameter keys
        (fields removed since 2.0 that never changed a placement) are
        dropped.
        """
        params_data = dict(data.get("params", {}))
        for key, default in _REMOVED_HEIGHT_KEYS.items():
            if params_data.pop(key, default) != default:
                raise ValidationError(
                    f"params.{key} was removed in 2.0; state the snapshot's "
                    "track heights as params.heights (a HeightSpec)"
                )
        for key, default in _REMOVED_IN_9_KEYS.items():
            value = params_data.pop(key, default)
            if value != default:
                raise ValidationError(
                    f"params.{key} was removed in 9.0 and only its default "
                    f"{default!r} loads; this snapshot's {key}={value!r} "
                    "placement cannot be rebuilt"
                )
        heights_data = params_data.pop("heights", None)
        heights = (
            None if heights_data is None
            else HeightSpec.from_dict(heights_data)
        )
        field_names = {f.name for f in dataclasses.fields(RCPPParams)}
        try:
            params = RCPPParams(
                heights=heights,
                **{k: v for k, v in params_data.items() if k in field_names},
            )
        except ValidationError as exc:
            raise ValidationError(
                f"snapshot params do not load: {exc} (10.0 removed the "
                "heuristic solver_backend of 9.x)"
            ) from exc
        return cls(
            scale=float(data.get("scale", DEFAULT_SCALE)),
            params=params,
            seed=data.get("seed"),
            workers=int(data.get("workers", 1)),
            utilization=float(data.get("utilization", 0.60)),
            aspect_ratio=float(data.get("aspect_ratio", 1.0)),
        )

    # -- CLI integration ---------------------------------------------------

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        """Build from a namespace produced by :func:`add_run_config_args`.

        Missing attributes fall back to the dataclass defaults, so the
        helper composes with subcommands that only add a subset.
        """
        defaults = RCPPParams()
        heights_text = getattr(args, "heights", None)
        heights = (
            None if not heights_text
            else HeightSpec.parse(
                heights_text, getattr(args, "row_budgets", None)
            )
        )
        params = RCPPParams(
            alpha=getattr(args, "alpha", defaults.alpha),
            s=getattr(args, "s", defaults.s),
            heights=heights,
            solver_backend=getattr(args, "solver", defaults.solver_backend),
            fallback=not getattr(args, "no_fallback", False),
            max_solver_retries=getattr(
                args, "retries", defaults.max_solver_retries
            ),
            time_budget_s=getattr(args, "budget_s", None),
        )
        scale_denom = getattr(args, "scale_denom", None)
        scale = (
            1.0 / float(scale_denom) if scale_denom else DEFAULT_SCALE
        )
        return cls(
            scale=scale,
            params=params,
            seed=getattr(args, "seed", None),
            workers=getattr(args, "workers", 1) or 1,
        )


def add_run_config_args(
    parser: argparse.ArgumentParser,
    scale_denom: float = 48.0,
    workers: bool = False,
) -> None:
    """Install the shared run-configuration flags on a CLI subparser.

    One definition (defaults included) for every subcommand; pair with
    :meth:`RunConfig.from_args`.
    """
    defaults = RCPPParams()
    parser.add_argument(
        "--scale-denom", type=float, default=scale_denom,
        help="cell-count denominator: designs run at 1/D of paper size",
    )
    parser.add_argument(
        "--seed", type=int, default=None,
        help="base seed mixed into per-job seeds (default: testcase-derived)",
    )
    parser.add_argument("--alpha", type=float, default=defaults.alpha)
    parser.add_argument("--s", type=float, default=defaults.s)
    parser.add_argument(
        "--heights", type=str, default=None, metavar="T0,T1[,T2...]",
        help=(
            "track heights, majority first (e.g. 6,7.5,9); omitted = the "
            "paper's two-height 6/7.5 setting"
        ),
    )
    parser.add_argument(
        "--row-budgets", type=str, default=None, metavar="T=N[,T=N...]",
        help=(
            "forced row-pair budgets per minority track (e.g. 7.5=3,9=2 "
            "or positional 3,2); omitted budgets derive from area"
        ),
    )
    parser.add_argument(
        "--solver", choices=MILP_BACKENDS,
        default=defaults.solver_backend,
    )
    parser.add_argument(
        "--budget-s", type=float, default=None,
        help="per-flow wall-clock budget in seconds (default: unlimited)",
    )
    parser.add_argument(
        "--no-fallback", action="store_true",
        help="disable the solver fallback chain (fail hard instead)",
    )
    parser.add_argument(
        "--retries", type=int, default=defaults.max_solver_retries,
        help="attempts per solver rung for transient failures",
    )
    if workers:
        parser.add_argument(
            "--workers", type=int, default=1,
            help="parallel worker processes (1 = run inline)",
        )
