"""Loop-level equivalence: whole refinement loops on kernels vs references.

A single-call test can miss a last-bit drift that only compounds over
rounds (each round's median targets read the previous round's Abacus
output).  Here the loops that call the kernels run twice on a 1/48-scale
Table II twin — once as shipped, once with the preserved scalar Abacus
(``tests/_reference_legalize.py``) and lexsort median
(``tests/_reference_incremental.py``) patched in — and must end at the
same positions, bit for bit.
"""

import numpy as np
import pytest

from repro.core import legalize_rc
from repro.core.flows import FlowKind, FlowRunner, prepare_initial_placement
from repro.core.legalize_rc import fence_region_legalize
from repro.experiments import testcases
from repro.placement import incremental, legalize
from repro.placement.incremental import legalize_row_windows, refine_detailed
from repro.techlib.asap7 import make_asap7_library
from tests._reference_incremental import reference_median_target_positions
from tests._reference_legalize import reference_abacus_legalize


def _reference_abacus(placed, rows, indices=None, window=5):
    # The reference needs bottom-up rows; the kernel sorts internally.
    rows = sorted(rows, key=lambda r: r.y)
    return reference_abacus_legalize(placed, rows, indices, window)


@pytest.fixture(scope="module")
def twin():
    library = make_asap7_library()
    spec = testcases.testcase_by_id("aes_300")
    design = testcases.build_testcase(spec, library, 1.0 / 48.0)
    return FlowRunner(prepare_initial_placement(design, library))


@pytest.fixture(scope="module")
def flow5_placed(twin):
    return twin.run(FlowKind.FLOW5).placed


def patch_references(m):
    """Patch the reference kernels in at every call site the loops use."""
    m.setattr(legalize, "abacus_legalize", _reference_abacus)
    m.setattr(legalize_rc, "abacus_legalize", _reference_abacus)
    m.setattr(
        incremental,
        "_median_targets",
        lambda placed, groups: reference_median_target_positions(placed),
    )


def assert_identical(a, b):
    assert np.array_equal(a.x, b.x), "x differs"
    assert np.array_equal(a.y, b.y), "y differs"


def test_refine_detailed_six_rounds(twin, monkeypatch):
    base = twin.initial.placed
    new = base.copy()
    refine_detailed(new, rounds=6)
    ref = base.copy()
    with monkeypatch.context() as m:
        patch_references(m)
        refine_detailed(ref, rounds=6)
    assert not np.array_equal(new.x, base.x)
    assert_identical(new, ref)


def _mixed(twin):
    return twin._build_mixed_placement(twin.ilp_assignment()[0])


def test_fence_region_legalize(twin, monkeypatch):
    classes = twin.initial.class_indices
    iterations = twin.params.refine_iterations
    new = _mixed(twin)
    fence_region_legalize(new, classes, refine_iterations=iterations)
    ref = _mixed(twin)
    with monkeypatch.context() as m:
        patch_references(m)
        fence_region_legalize(ref, classes, refine_iterations=iterations)
    assert new.check_legal() == []
    assert_identical(new, ref)


@pytest.mark.parametrize("crowd", [False, True], ids=["scatter", "crowd"])
def test_legalize_row_windows(twin, flow5_placed, monkeypatch, crowd):
    """ECO row windows; ``crowd`` piles the disturbed cells onto one spot
    so the first windows overflow and the escalation path runs."""
    placed = flow5_placed.copy()
    track = twin.majority_track
    rows = [r for r in placed.floorplan.rows if r.track_height == track]
    minority = np.zeros(len(placed.x), dtype=bool)
    for indices in twin.initial.class_indices.values():
        minority[indices] = True
    members = np.flatnonzero(~minority)
    rng = np.random.default_rng(4)
    size = 60 if crowd else 8
    affected = np.sort(rng.choice(members, size=size, replace=False))
    if crowd:
        placed.x[affected] = placed.x[affected[0]]
        placed.y[affected] = placed.y[affected[0]]
    else:
        placed.x[affected] += rng.uniform(-2000.0, 2000.0, len(affected))
        placed.y[affected] += rng.uniform(-600.0, 600.0, len(affected))
    new = placed.copy()
    windows = []
    kernel = legalize.abacus_legalize

    def counting_kernel(placed, rows, indices):
        windows.append(len(rows))
        return kernel(placed, rows, indices)

    with monkeypatch.context() as m:
        m.setattr(legalize, "abacus_legalize", counting_kernel)
        legalize_row_windows(new, rows, members, affected, window=1)
    if crowd:
        assert len(windows) > 1, "the first windows should overflow"
    else:
        assert len(windows) == 1 and windows[0] < len(rows)
    ref = placed.copy()
    with monkeypatch.context() as m:
        patch_references(m)
        legalize_row_windows(ref, rows, members, affected, window=1)
    assert_identical(new, ref)
