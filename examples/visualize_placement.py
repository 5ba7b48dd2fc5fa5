"""Render paper-Fig.-3-style SVGs of the row-constraint pipeline.

Produces three figures like the paper's Fig. 3 for one testcase:
(a) the unconstrained initial placement, (b) the fence regions derived
from the ILP row assignment, (c) the final row-constraint placement —
blue = 6T majority cells, red = 7.5T minority cells, yellow = fences.

Run:  python examples/visualize_placement.py [outdir]
"""

import pathlib
import sys

from repro import FlowKind, FlowRunner, RunConfig
from repro.core.fence import FenceRegions
from repro.eval.visualize import save_placement_svg
from repro.experiments.artifact_cache import load_or_prepare_initial
from repro.experiments.testcases import testcase_by_id


def main() -> None:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    outdir.mkdir(parents=True, exist_ok=True)

    spec = testcase_by_id("aes_360")  # the paper's Fig. 3 testcase
    config = RunConfig(scale=1 / 48)
    initial, _ = load_or_prepare_initial(spec, config)
    runner = FlowRunner(initial, config.params)
    flow = runner.run(FlowKind.FLOW5)
    fences = {
        track: FenceRegions.from_floorplan(flow.placed.floorplan, track)
        for track in initial.heights.minority_tracks
    }

    a = outdir / "fig3a_initial.svg"
    save_placement_svg(
        str(a), initial.placed,
        minority_indices=initial.minority_indices,
        title=f"(a) {spec.testcase_id}: unconstrained initial placement (mLEF)",
    )
    b = outdir / "fig3b_fences.svg"
    save_placement_svg(
        str(b), flow.placed,
        minority_indices=[],  # fences only, before highlighting cells
        fences=fences,
        title="(b) fence regions from the ILP row assignment",
    )
    c = outdir / "fig3c_final.svg"
    save_placement_svg(
        str(c), flow.placed,
        minority_indices=initial.minority_indices,
        fences=fences,
        title="(c) final row-constraint placement",
    )
    for path in (a, b, c):
        print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
