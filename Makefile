# Convenience targets for the reproduction repository.

PYTHON ?= python3

.PHONY: install test bench ledger ledger-pair crossover sched-overhead traffic regen report examples lint analyze-examples analyze-portfolio profile-examples clean

# Kernel sources checked by `make lint` / `make analyze-examples`; every
# parameter any of them references must appear in LINT_PARAMS.
LINT_KERNELS ?= $(wildcard examples/kernels/*.c)
LINT_PARAMS ?= --param N=12

# The reduction kernels carry cross-nest anti/output dependences: under
# the all-kinds fallback they profile as two barrier tasks, which says
# nothing (and dotprod's non-injective accumulator write is rejected
# outright); they are covered by `make analyze-portfolio` instead.
REDUCTION_KERNELS := examples/kernels/dotprod.c examples/kernels/histogram.c \
	examples/kernels/sumstencil.c examples/kernels/subswap.c
PROFILE_KERNELS ?= $(filter-out $(REDUCTION_KERNELS),$(LINT_KERNELS))

install:
	$(PYTHON) tools/wheel_shim/install.py
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The wall-clock benchmark (ledger/README.md, BENCHMARK.json): four
# workloads, end-to-end + per-layer metrics, every answer checked
# against an independent NumPy reference (~4 min).
ledger:
	$(PYTHON) ledger/run.py

# Paired parent/change runs of the ledger (docs/performance.md): PARENT is
# a checkout of the parent commit (git clone, then git checkout <sha>).
# Prints medians, quartiles and pairs won per end-to-end metric; fails
# when any metric loses beyond its BENCHMARK.json bound.
WORKLOAD ?= fine_p
PAIRS ?= 10
ledger-pair:
	$(PYTHON) tools/ledger_pair.py $(PARENT) . --workload $(WORKLOAD) --pairs $(PAIRS)

# Slice form vs loop form of the fused block kernels, us per call at
# 1..16 points: where repro.interp.fused.LOOP_FORM_POINTS comes from
# (docs/performance.md, "Grain-aware block kernels").  Asserts nothing.
crossover:
	$(PYTHON) tools/kernel_crossover.py

# What a replay costs beyond its block kernels: full replay vs the bare
# stream-function loop on serial and threads, us per task and threads
# minus serial per run, on the fine_p / coarse_p kernel shapes
# (docs/performance.md, "Compiled schedule").  Asserts nothing.
sched-overhead:
	$(PYTHON) tools/sched_overhead.py

# Which functions of src/repro the product actually enters: every
# subcommand and `run` flag, the serve smoke, the examples, the tools, the
# benchmarks/ regenerators and the four ledger workloads under a profile
# hook installed in every child process; prints lines-in-uncalled-functions
# per module (~3 min; sizes the next deletion).  Asserts nothing.
traffic:
	$(PYTHON) tools/traffic_trace.py --out traffic.txt

# Regeneration tests (print the paper's tables/figures and assert shapes)
regen:
	$(PYTHON) -m pytest benchmarks/ -s

report:
	$(PYTHON) -m repro report --out evaluation

examples:
	@for ex in examples/*.py; do echo "== $$ex =="; $(PYTHON) $$ex; done

# Fail on any error-severity diagnostic (exit code 1) in the shipped kernels.
lint:
	@status=0; for k in $(LINT_KERNELS); do \
		echo "== lint $$k =="; \
		$(PYTHON) -m repro lint $$k $(LINT_PARAMS) || status=1; \
	done; exit $$status

# Deep analysis of every shipped kernel: SCoP validation, pipelinability
# classification and task-graph checks; fails on error diagnostics.
analyze-examples:
	@status=0; for k in $(LINT_KERNELS); do \
		echo "== analyze $$k =="; \
		$(PYTHON) -m repro lint $$k --deep $(LINT_PARAMS) || status=1; \
	done; exit $$status

# Critical-path profile of every example kernel on the thread backend
# (docs/observability.md): measured critical path, per-statement self
# time, simulated-vs-measured makespan divergence.
profile-examples:
	@status=0; for k in $(PROFILE_KERNELS); do \
		echo "== profile $$k =="; \
		$(PYTHON) -m repro profile $$k $(LINT_PARAMS) || status=1; \
	done; exit $$status

# Pattern portfolio over every shipped kernel: reduction / do-all /
# geometric-decomposition detection with machine-checked privatization
# proofs (docs/analysis.md, rule codes RPA05x).
analyze-portfolio:
	@status=0; for k in $(LINT_KERNELS); do \
		echo "== portfolio $$k =="; \
		$(PYTHON) -m repro analyze $$k --portfolio $(LINT_PARAMS) || status=1; \
	done; exit $$status

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache evaluation
	find . -name __pycache__ -type d -exec rm -rf {} +
