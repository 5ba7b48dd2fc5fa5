"""Experiment harness: one module per paper table/figure.

======================  ==========================================
Module                  Reproduces
======================  ==========================================
``testcases``           Table II (26 OpenCores testcases)
``table4``              Table IV (post-placement, flows (1)-(5))
``table5``              Table V (post-route, flows (1),(2),(4),(5))
``fig4``                Fig. 4 (s and alpha sweeps)
``fig5``                Fig. 5 (ILP runtime vs minority instances)
``profile_runtime``     Sec. IV.B.3 (stage runtime profile)
``clustering_impact``   Sec. IV.B.4 (clustering ablation)
``overhead``            Sec. IV.B.6 (overhead vs unconstrained)
======================  ==========================================

Every module exposes ``run(...)`` returning structured rows and a
``main()`` that prints a paper-shaped table.  Each entry point takes one
:class:`~repro.core.config.RunConfig` (``config=``) for scale and method
parameters.  Scale defaults keep a full run tractable in pure Python;
pass ``config=RunConfig(scale=1/16)`` (or more) for the larger-design
variants.
"""

from repro.experiments.testcases import (
    PAPER_TESTCASES,
    TestcaseSpec,
    build_testcase,
    testcase_subset,
)

__all__ = [
    "PAPER_TESTCASES",
    "TestcaseSpec",
    "build_testcase",
    "testcase_subset",
]
