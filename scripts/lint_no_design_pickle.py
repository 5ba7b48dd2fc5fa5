#!/usr/bin/env python3
"""Grep-lint: no design object rides a worker payload.

Worker fan-out — sweep tasks — names the testcase and loads the design
in the worker.  No task pickles a
:class:`~repro.placement.db.PlacedDesign` or its netlist.  This lint
keeps it that way: in every ``src/repro`` module that submits work to a
pool/executor API (``.submit``, ``.apply_async``, ``.imap``,
``Process``), it counts payload idioms that would put a design straight
into the pickled payload:

* a design-ish payload key — ``"placed"`` / ``"placed_design"`` /
  ``"design"`` / ``"initial"`` — in a dict literal, or
* ``pickle.dumps`` applied to a design-named object.

The committed baseline is **zero everywhere**: the fan-out paths ship
testcase ids and run configs.  A file may never move up from its
baseline; files not listed have a baseline of 0.  Raw numeric arrays
(``"f"`` / ``"w"`` / ``"cap"`` …) stay legal.

Run directly (``python scripts/lint_no_design_pickle.py``) or via
``make test`` (the ``lint-no-design-pickle`` prerequisite).  Exit 0 =
clean, 1 = violations.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Worker-submission APIs: a file calling any of these is a fan-out site
#: whose payload construction falls under the lint.
POOL_API = re.compile(
    r"\.submit\s*\(|\.apply_async\s*\("
    r"|\.imap(?:_unordered)?\s*\(|\bProcess\s*\("
)

#: Design DBs riding a payload: a design-ish dict key (exact match), or
#: pickling a design-named object directly.
DESIGN_PAYLOAD = re.compile(
    r"""["'](?:placed|placed_design|design|initial)["']\s*:"""
    r"""|pickle\.dumps\([^)\n]*\b(?:placed|design|initial)\b"""
)

#: Committed per-file violation counts (relative to ``src/repro``).  Every
#: fan-out path is clean, so this is — and should stay — empty; a file
#: may only ever ratchet DOWN.
BASELINE: dict[str, int] = {}


def count_violations(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    if not POOL_API.search(text):
        return 0
    return len(DESIGN_PAYLOAD.findall(text))


def main() -> int:
    failures: list[str] = []
    ratchet: list[str] = []
    seen: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        n = count_violations(path)
        if n == 0:
            continue
        seen.add(rel)
        allowed = BASELINE.get(rel, 0)
        if n > allowed:
            failures.append(
                f"{rel}: {n} design-payload idiom(s) at a pool/executor "
                f"call site (baseline {allowed}) — name the testcase and "
                "load the design in the worker instead of pickling it"
            )
        elif n < allowed:
            ratchet.append(f"{rel}: {allowed} -> {n}")
    for rel in sorted(set(BASELINE) - seen):
        ratchet.append(f"{rel}: {BASELINE[rel]} -> 0")

    for line in ratchet:
        print(f"lint_no_design_pickle: ratchet down the baseline: {line}")
    if failures:
        for line in failures:
            print(f"lint_no_design_pickle: FAIL {line}", file=sys.stderr)
        return 1
    print("lint_no_design_pickle: OK (no design DBs pickled into pool payloads)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
