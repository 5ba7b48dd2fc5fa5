# Convenience targets for the repro library.

PYTHON ?= python3

.PHONY: install test test-e2e test-kernels test-goldens lint-no-design-pickle test-faults test-chaos bench bench-full bench-sweep bench-kernels bench-rap bench-rap-tail bench-nheight bench-events bench-eco bench-giga report examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test: lint-no-design-pickle test-e2e
	$(PYTHON) -m pytest tests/

# End-to-end benchmark harness smoke tests (~25 s): every workload runs
# briefly and any operation whose output check_legal() rejects fails.
test-e2e:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e -q

# Kernel equivalence suites (< 1 min): the legalizer, legality-oracle,
# global-place and median kernels against their preserved references,
# call by call and over whole refinement loops; the RAP engine's one
# restricted-solve-and-price loop against the dense and ECO-repair
# routes it replaced; and the RAP cost rows an ECO repair keeps current
# against a fresh compute after every delta (and the whole compute
# against its preserved reference).  Run after touching any kernel in
# repro.placement or repro.kernels, the engine in repro.core.sparse_rap,
# the cost assembly in repro.core.cost or the ECO repair in repro.eco.
test-kernels:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_legalize_equivalence.py \
	  tests/test_legality_oracle.py tests/test_global_place_equivalence.py \
	  tests/test_median_equivalence.py tests/test_refine_equivalence.py \
	  tests/test_rap_equivalence.py tests/test_cost_equivalence.py

# Frozen golden suites (~5 s): the RAP models, baseline assignment,
# legalizers and flows (2)-(5) of the two-height twin, its 1/12-scale
# solve, and the three-height twin at two scales, recomputed and
# demanded bit for bit against tests/golden/.  Run after any change
# that must not move a number.
test-goldens:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_heights.py \
	  -k "BitIdentity or ModelDelegation"

# Grep-lint: design DBs never cross process boundaries as pickled
# PlacedDesign payloads; workers load them by testcase name.
lint-no-design-pickle:
	$(PYTHON) scripts/lint_no_design_pickle.py

# Failure-injection / resilience suite only (FaultPlan, fallback chains).
test-faults:
	$(PYTHON) -m pytest tests/ -m faults

# Chaos suite only: worker_crash / worker_hang / slow_solver injected
# into sweeps and supervised-pool jobs (shm leak and event-stream
# checks), plus journal kill-and-resume equivalence.
test-chaos:
	$(PYTHON) -m pytest tests/test_chaos.py -m faults

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Full 26-testcase sweep at 1/24 scale (the EXPERIMENTS.md setting).
bench-full:
	REPRO_BENCH_FULL=1 REPRO_BENCH_SCALE=24 \
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Instrumented parallel sweep -> BENCH_sweep.json (+ Table IV-layout CSV).
bench-sweep:
	PYTHONPATH=src $(PYTHON) -m repro sweep --scale-denom 48 --workers 4 \
	  --out BENCH_sweep.json --csv BENCH_sweep.csv

# Flight-recorder run report on a small synthetic Flow (5) case:
# RUN_REPORT/{run_record.json,trace.json,report.md}, all three folded from
# the events the run emitted; the record is gated against the
# repro.run_record/1 schema.
report:
	PYTHONPATH=src $(PYTHON) -m repro report --cells 400 --out-dir RUN_REPORT
	$(PYTHON) scripts/check_bench.py --record RUN_REPORT/run_record.json

# Hot-path kernel microbenchmarks -> BENCH_kernels.json, gated against the
# committed baseline (>20% wall-time regression or a missed speedup floor
# fails the target and leaves the committed file untouched).  The report
# prerequisite also schema-gates a fresh flight-recorder run record.
bench-kernels: report
	$(PYTHON) scripts/bench_kernels.py --out BENCH_kernels.json.new
	$(PYTHON) scripts/check_bench.py BENCH_kernels.json.new BENCH_kernels.json \
	  || (rm -f BENCH_kernels.json.new; exit 1)
	mv BENCH_kernels.json.new BENCH_kernels.json

# Sparse-RAP-only rebench (full-scale aes_400 instance): refreshes the
# rap_solve entry of BENCH_kernels.json, carrying the other kernels over,
# and runs the same regression/floor/objective-match gate.
bench-rap:
	$(PYTHON) scripts/bench_kernels.py --only rap --merge BENCH_kernels.json \
	  --out BENCH_kernels.json.new
	$(PYTHON) scripts/check_bench.py BENCH_kernels.json.new BENCH_kernels.json \
	  || (rm -f BENCH_kernels.json.new; exit 1)
	mv BENCH_kernels.json.new BENCH_kernels.json

# RAP runtime-tail rebench (the 30 seed-derived half-scale aes_300
# twins, one engine solve each): refreshes the rap_tail entry — per-twin
# seconds, columns kept, z_ub - z_lp and certified, plus median, p90 and
# max — carrying the other kernels over.  No floor of its own.
bench-rap-tail:
	$(PYTHON) scripts/bench_kernels.py --only rap_tail --merge BENCH_kernels.json \
	  --out BENCH_kernels.json.new
	$(PYTHON) scripts/check_bench.py BENCH_kernels.json.new BENCH_kernels.json \
	  || (rm -f BENCH_kernels.json.new; exit 1)
	mv BENCH_kernels.json.new BENCH_kernels.json

# Joint N-height (N=3) RAP rebench (aes3h_340, sweep scale): refreshes
# the rap_nheight entry — height-indexed sparse engine vs the dense joint
# model — and gates the N=3 objective-match invariant.
bench-nheight:
	$(PYTHON) scripts/bench_kernels.py --only nheight --merge BENCH_kernels.json \
	  --out BENCH_kernels.json.new
	$(PYTHON) scripts/check_bench.py BENCH_kernels.json.new BENCH_kernels.json \
	  || (rm -f BENCH_kernels.json.new; exit 1)
	mv BENCH_kernels.json.new BENCH_kernels.json

# Event-bus overhead rebench (flow (5) on the sweep-scale aes_400):
# refreshes the events_overhead entry — the flow with a bus + JSONL sink
# attached (every event streamed, telemetry-only QoR work on) vs no sink
# at all — and gates that the bus costs at most ~3% wall-clock and that
# the streamed JSONL passes validate_events.
bench-events:
	$(PYTHON) scripts/bench_kernels.py --only events --merge BENCH_kernels.json \
	  --out BENCH_kernels.json.new
	$(PYTHON) scripts/check_bench.py BENCH_kernels.json.new BENCH_kernels.json \
	  || (rm -f BENCH_kernels.json.new; exit 1)
	mv BENCH_kernels.json.new BENCH_kernels.json

# Streaming-ECO rebench (flow (5) incumbent on the full-scale aes_400):
# refreshes the eco_repair entry — warm-started restricted RAP repair +
# windowed re-legalization of a deterministic 1% netlist delta vs a cold
# full re-run of the same mutated design — and gates the >= 20x
# speedup_vs_full floor plus the qor_match invariant (legal, <= 2% HPWL
# drift vs cold).
bench-eco:
	$(PYTHON) scripts/bench_kernels.py --only eco --merge BENCH_kernels.json \
	  --out BENCH_kernels.json.new
	$(PYTHON) scripts/check_bench.py BENCH_kernels.json.new BENCH_kernels.json \
	  || (rm -f BENCH_kernels.json.new; exit 1)
	mv BENCH_kernels.json.new BENCH_kernels.json

# Giga-tier rebench (100k-cell aes_giga): refreshes the *_giga entries —
# legalizer / spread / B2B throughput in cells_per_s plus one end-to-end
# flow (5) run inside the fixed GIGA_FLOW_BUDGET_S wall-clock budget —
# and gates the giga floors (tetris >= 3x over the scalar reference at
# 100k cells, flow within budget).  Slow: expect several minutes.
bench-giga:
	$(PYTHON) scripts/bench_kernels.py --only giga --merge BENCH_kernels.json \
	  --out BENCH_kernels.json.new
	$(PYTHON) scripts/check_bench.py BENCH_kernels.json.new BENCH_kernels.json \
	  || (rm -f BENCH_kernels.json.new; exit 1)
	mv BENCH_kernels.json.new BENCH_kernels.json

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
