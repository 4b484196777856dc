# Developer entry points.  Everything is plain pytest underneath, except the
# benchmark-regression harness, which is a standalone script pair.

PYTHON ?= python3

.PHONY: install test bench bench-smoke bench-oom-smoke bench-models-oom-smoke bench-pytest bench-tables mc-smoke models-smoke service-smoke conformance-smoke examples zoo all

install:
	$(PYTHON) setup.py develop

# Hypothesis runs under the derandomized "ci" profile so the property-based
# and differential suites are reproducible (see tests/conftest.py).  Coverage
# is collected when pytest-cov is installed (CI installs it; it is optional
# locally) — the floor itself is enforced in the CI workflow.
COV_ARGS := $(shell $(PYTHON) -c "import pytest_cov" 2>/dev/null && echo "--cov=src/repro --cov-report=term-missing:skip-covered")

test:
	HYPOTHESIS_PROFILE=ci $(PYTHON) -m pytest tests/ $(COV_ARGS)

# Run the E1/E2/E5/MC hot-path benchmarks, emit BENCH_LOCAL.json, and gate it
# against the committed trajectory (fails on >20% slowdown of a tracked path,
# if the CSP kernel's speedup over the naive search drops below 5x on the
# (n=3, b=2) rows, if the model checker's DPOR reduction drops below 5x
# schedules on the 3-process emulation, or if the orbit engine's acceptance
# ratios regress: the cold packed (n=3, b=2) build must stay >= 3x faster
# than the PR4 engine and a disk-cache hit >= 2x faster than a cold build).
# The E17 floors are the out-of-core acceptance: the numpy mask kernel must
# hold >= 3x over the int kernel on the (n=3, b=3) identity probe, and the
# in-RAM pipeline must genuinely OOM under the RSS ceiling the sharded
# pipeline clears (a ratio and a bit — both stable on noisy machines).
# The svc floors are the service's acceptance: a warm server must sustain
# >= 500 zoo-scale queries/second closed-loop and answer >= 90% of the load
# run from its caches (E18).  The e19 floors are the model zoo's acceptance:
# a model-restricted cold build must be no slower than the full build at the
# same (n, b) = (3, 3) — the restriction rides inside the orbit builder, so
# pruning must pay for itself (it does: 5-54x at that depth).  The e21
# floors are the model-native fast path's acceptance (E21): the restricted
# *streaming shard* build must hold >= 5x over build-full-then-filter at
# (3, 3) — the honest comparison is asymptotic (admitted tops vs full
# level), the floor is deliberately far under the ~1000x measurement — and
# the model-aware numpy compile must hold >= 2x over the int kernel on the
# same warm native store at (3, 4).
bench:
	$(PYTHON) benchmarks/run_bench.py --output BENCH_LOCAL.json --label local
	$(PYTHON) benchmarks/compare_bench.py BENCH_LOCAL.json --against BENCH_PR10.json \
		--min-speedup e5k.solve.n3_b2.speedup_vs_naive=5 \
		--min-speedup e5k.solve.n3_b2_cap.speedup_vs_naive=5 \
		--min-speedup mc.explore.emu_p3k1.reduction_vs_naive=5 \
		--min-speedup mc.explore.emu_p2k2.reduction_vs_naive=2 \
		--min-speedup e2.build.cold.n3_b2.speedup_vs_pr4=3 \
		--min-speedup e2.build.cold.cache_hit.n3_b2.speedup_vs_cold=2 \
		--min-speedup e17.kernel.n3_b3.numpy_speedup_vs_int=3 \
		--min-speedup e17.pipeline.inram.n3_b3.oom_under_cap=1 \
		--min-speedup e19.build.restricted.t_resilient-1.n3_b3.speedup_vs_full=1 \
		--min-speedup e19.build.restricted.k_concurrent-1.n3_b3.speedup_vs_full=1 \
		--min-speedup e19.build.restricted.k_set_consensus-2.n3_b3.speedup_vs_full=1 \
		--min-speedup svc.load.closed.queries_per_sec=500 \
		--min-speedup svc.load.cache_hit_rate=0.9 \
		--min-speedup e20.conform.warm.entries_per_sec=2 \
		--min-speedup e21.build.restricted_sharded.t_resilient-1.n3_b3.speedup_vs_full_then_filter=5 \
		--min-speedup e21.compile.model.k_set_consensus-2.n3_b4.numpy_speedup_vs_int=2

# CI-sized benchmark: cheap rows only, compare-only (no committed JSON is
# rewritten), still enforcing the kernel's 5x floor on the (3, 2) SAT row,
# the model checker's reduction floor, and the disk cache's warm-start
# advantage on the smoke-sized (n=2, b=2) cold row.  The loose timing
# threshold absorbs CI jitter on microsecond-scale rows; count drift and the
# speedup floors are exact gates regardless.
bench-smoke:
	$(PYTHON) benchmarks/run_bench.py --smoke --output BENCH_SMOKE.json --label smoke
	$(PYTHON) benchmarks/compare_bench.py BENCH_SMOKE.json --against BENCH_PR10.json \
		--allow-missing --threshold 1.0 \
		--min-speedup e5k.solve.n3_b2.speedup_vs_naive=5 \
		--min-speedup mc.explore.emu_p2k2.reduction_vs_naive=2 \
		--min-speedup e2.build.cold.cache_hit.n2_b2.speedup_vs_cold=1.5 \
		--min-speedup e20.conform.warm.entries_per_sec=2
	rm -f BENCH_SMOKE.json

# CI-sized out-of-core separation proof: the same (n=2, b=4) instance under
# the same 110MB address-space ceiling must SUCCEED through the sharded
# pipeline and FAIL (exit 3 = MemoryError) through the in-RAM one.  Both run
# the int backend so the smoke job needs nothing past the stdlib, and both
# use a throwaway cache directory so CI never touches a shared cache.
bench-oom-smoke:
	$(eval OOM_TMP := $(shell mktemp -d))
	$(PYTHON) benchmarks/capped_probe.py --mode pipeline --n 2 --b 4 \
		--shard-size 8192 --cap-mb 110 --backend int --cache-dir $(OOM_TMP)
	$(PYTHON) benchmarks/capped_probe.py --mode pipeline-inram --n 2 --b 4 \
		--cap-mb 110 --cache-dir $(OOM_TMP); test $$? -eq 3
	rm -rf $(OOM_TMP)

# Model-native separation proof at the (3, 4) depth the ROADMAP names: a
# t_resilient(1) restricted build + numpy probe completes in seconds under a
# 600MB address-space cap (the orbit-pruned writer materializes 625 tops,
# not 31.6M), while the unrestricted build of the same level meets neither
# the memory cap nor a 60s wall-clock budget — it is killed by whichever
# bound it hits first (exit 124 = timeout, exit 3 = MemoryError).  The
# default solve_task path carries the same guarantee: a (4-process, b=3)
# set-consensus query under t_resilient(1) solves from the restricted store
# under a 150MB cap, where building the full level first runs out of memory.
bench-models-oom-smoke:
	$(eval OOM_TMP := $(shell mktemp -d))
	$(PYTHON) benchmarks/capped_probe.py --mode pipeline --n 3 --b 4 \
		--model "t_resilient(1)" --shard-size 8192 --cap-mb 600 \
		--backend numpy --cache-dir $(OOM_TMP)
	$(PYTHON) benchmarks/capped_probe.py --mode solve --task set_consensus \
		--task-args 4 3 --min-rounds 3 --b 3 --model "t_resilient(1)" \
		--cap-mb 150 --cache-dir $(OOM_TMP)
	timeout 60 $(PYTHON) benchmarks/capped_probe.py --mode build --n 3 --b 4 \
		--shard-size 8192 --cap-mb 600 --cache-dir $(OOM_TMP); test $$? -ne 0
	rm -rf $(OOM_TMP)

# Model-checker smoke: exhaustively verify the 2-process emulation (healthy,
# with crash injection, and in parallel), then prove the oracles are
# load-bearing — the broken skip-freshness variant must FAIL, produce a
# minimized replay file, and that file must re-reproduce the violation.
mc-smoke:
	PYTHONPATH=src $(PYTHON) -m repro mc -p 2 -k 1 --compare --crashes 1
	PYTHONPATH=src $(PYTHON) -m repro mc -p 2 -k 2 --workers 2
	! PYTHONPATH=src $(PYTHON) -m repro mc -p 2 -k 1 --mutate skip-freshness \
		--save-replay MC_CEX.json
	PYTHONPATH=src $(PYTHON) -m repro mc --replay MC_CEX.json
	rm -f MC_CEX.json

# Model-zoo smoke: the affine-task model surface end to end, cheap enough
# for CI — the model registry lists, a describe renders, and the two
# headline verdict flips reproduce through the real solver (`repro zoo`
# re-solves every zoo task under the restricted model; consensus flips to
# solvable under 0-resilience, (3,2)-set consensus under k_set_consensus(2)).
models-smoke:
	PYTHONPATH=src $(PYTHON) -m repro models list
	PYTHONPATH=src $(PYTHON) -m repro models describe "t_resilient(1)"
	PYTHONPATH=src $(PYTHON) -m repro zoo --max-rounds 1 --model t_resilient:0
	PYTHONPATH=src $(PYTHON) -m repro zoo --max-rounds 1 --model k_set_consensus:2

# Conformance smoke: the CI-sized slice of `repro conform`.  A SKIP cell
# (consensus at b<=2 is FLP-unsolvable), the two restricted-model rescue
# cells model-checked with crash injection and round-tripped, and the
# mutation self-test — corrupt one witness entry, require the pipeline to
# FAIL on Δ-compliance, ddmin the schedule, and re-verify the replay.
conformance-smoke:
	PYTHONPATH=src $(PYTHON) -m repro conform consensus 2 --max-rounds 2
	PYTHONPATH=src $(PYTHON) -m repro conform consensus 2 \
		--model "t_resilient(0)" --max-rounds 1 --crashes 1
	PYTHONPATH=src $(PYTHON) -m repro conform consensus 2 \
		--model "k_concurrent(1)" --max-rounds 1 --crashes 1
	PYTHONPATH=src $(PYTHON) -m repro conform --self-test

# Solvability-service smoke: `repro serve` with a real worker pool, 50
# zoo-mix queries through the `repro query` CLI (separate client processes),
# all answered with a nonzero cache hit rate, then a miss pass (the mix again
# with a distinct --node-budget each: every reply `cache: miss`, every
# verdict equal to the first pass's), then a clean SIGTERM shutdown (exit 0,
# socket unlinked).  The throughput floors live in `bench`; this target
# proves the user-facing path works at all, cheaply enough for CI.
service-smoke:
	$(PYTHON) benchmarks/service_smoke.py

# The full pytest-benchmark experiment suite (E1..E13).
bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Benchmarks with the per-experiment tables printed (-s).
bench-tables:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

zoo:
	$(PYTHON) -m repro zoo

all: test bench
