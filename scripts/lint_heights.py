#!/usr/bin/env python3
"""Grep-lint: new code must use HeightSpec, not the legacy vocabulary.

The N-height generalization keeps the two-height kwargs
(``minority_track`` / ``minority_fill_target`` / ``n_minority_rows``)
alive as deprecation shims, so the legacy names legitimately survive in
the modules that *define* the compatibility surface and in pre-existing
internals.  But they must not spread: this lint counts references to the
legacy names per file under ``src/repro`` and fails when

* a file NOT in the committed baseline references them (new module wrote
  against the deprecated surface), or
* a baselined file's count *grew* (new legacy references were added).

Shrinking a count is fine — it just means a file migrated further onto
``HeightSpec``; the lint prints a reminder to ratchet the baseline down.
The shim modules (``core/heights.py``, ``core/params.py``) are exempt:
they exist to spell the old names.

Run directly (``python scripts/lint_heights.py``) or via ``make test``
(the ``lint-heights`` prerequisite).  Exit 0 = clean, 1 = violations.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: The deprecated two-height vocabulary.  Word-bounded, so the N-height
#: plural ``minority_tracks`` (HeightSpec's own surface) never matches.
LEGACY = re.compile(
    r"\bminority_track\b|\bminority_fill_target\b|\bn_minority_rows\b"
)

#: Modules that define the deprecation shims — exempt from the ratchet.
SHIM_MODULES = frozenset({"core/heights.py", "core/params.py"})

#: Committed reference counts per file (relative to ``src/repro``) at
#: the commit introducing this lint.  A file may only move DOWN from
#: here; growth or a new file with references fails the gate.
BASELINE: dict[str, int] = {
    "__init__.py": 1,
    "cli.py": 1,
    "core/alternating.py": 10,
    "core/config.py": 2,
    "core/fence.py": 3,
    "core/flows.py": 28,
    "core/rap.py": 5,
    "core/rcpp.py": 3,
    "core/region.py": 5,
    "core/sparse_rap.py": 31,
    "core/swap.py": 2,
    "eval/visualize.py": 2,
    "experiments/artifact_cache.py": 4,
    "experiments/runner.py": 2,
    "experiments/sensitivity.py": 1,
    "experiments/sweep_engine.py": 3,
    "experiments/sweeps.py": 5,
    "netlist/db.py": 4,
    "netlist/synthesis.py": 5,
    "solvers/lagrangian.py": 9,
}


def count_references(path: Path) -> int:
    return len(LEGACY.findall(path.read_text(encoding="utf-8")))


def main() -> int:
    failures: list[str] = []
    ratchet: list[str] = []
    seen: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel in SHIM_MODULES:
            continue
        n = count_references(path)
        if n == 0:
            continue
        seen.add(rel)
        allowed = BASELINE.get(rel)
        if allowed is None:
            failures.append(
                f"{rel}: {n} legacy minority/majority reference(s) in a "
                "file outside the baseline — new code must use HeightSpec"
            )
        elif n > allowed:
            failures.append(
                f"{rel}: legacy references grew {allowed} -> {n} — "
                "new code must use HeightSpec"
            )
        elif n < allowed:
            ratchet.append(f"{rel}: {allowed} -> {n}")
    for rel in sorted(set(BASELINE) - seen):
        ratchet.append(f"{rel}: {BASELINE[rel]} -> 0")

    for line in ratchet:
        print(f"lint_heights: ratchet down the baseline: {line}")
    if failures:
        for line in failures:
            print(f"lint_heights: FAIL {line}", file=sys.stderr)
        return 1
    total = sum(min(BASELINE.get(r, 0), count_references(SRC / r)) for r in seen)
    print(
        f"lint_heights: OK ({len(seen)} baselined files, "
        f"{total} legacy references, none new)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
