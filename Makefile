# Developer entry points.  Everything runs from the repo root with the
# in-tree package (PYTHONPATH=src); no installation step.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-full coverage scenarios docs-check chaos \
	check examples serve-smoke perfbench perfbench-record perfbench-smoke

# Tier-1: the full test suite.
test:
	$(PYTHON) -m pytest -x -q

# Fast tier: everything except the `slow`-marked matrix/sharding grids
# (see pytest.ini + docs/TESTING.md).  CI runs this on push.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# Full tier: tier-1 under its tier name (CI's PR gate runs the same
# suite through `coverage` below).
test-full: test

# Full tier under coverage with the recorded baseline floor (CI PR
# gate).  Needs pytest-cov (CI installs it; it is not part of the
# stdlib-only runtime).  Raise the floor when coverage rises; never
# lower it to make a PR pass.
COV_FAIL_UNDER ?= 80
coverage:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term \
		--cov-report=xml --cov-fail-under=$(COV_FAIL_UNDER)

# Worker-chaos smoke: the fast tier of tests/test_worker_chaos.py --
# SIGKILL/hang/quarantine one worker of a real process campaign and
# demand byte identity (docs/TESTING.md "Worker chaos").  CI runs this
# on push; the slow chaos grids run in the PR tier under `coverage`.
chaos:
	$(PYTHON) -m pytest tests/test_worker_chaos.py -x -q -m "not slow"

# The adversarial scenario matrix: every scenario across the full
# execution grid -- inline memo cells and memo-free executor cells (same
# code the slow test tier runs).
scenarios:
	$(PYTHON) -m repro.scenarios --grid

# The full gate in one command: tier-1 tests + docs freshness.
check: test docs-check

# Docs cannot rot: every symbol and CLI flag named in docs/API.md must
# resolve against the live code.
docs-check:
	$(PYTHON) -m pytest tests/test_docs_api.py -q

# The repository benchmark (perfbench/README.md, declared in
# BENCHMARK.json): one workload -- campaign, job, serve or analyze --
# through the real entry points, pinned to one CPU.  The last line
# printed is the JSON result; TRACE=1 reports the per-layer spans
# instead of the end-to-end metrics.  e.g.
# `make perfbench WORKLOAD=serve TRACE=1`.
WORKLOAD ?= campaign
SEED ?= 1
TRACE ?= 0
perfbench:
	$(PYTHON) perfbench/run.py --workload $(WORKLOAD) --seed $(SEED) \
		--seconds 15 --trace $(TRACE)

# Show a run's output on stderr and pass its last line, the JSON result,
# on.  awk writes the copy through the inherited fd 2: `tee /dev/stderr`
# would reopen the file behind it and truncate a redirected log.
PERFBENCH_LAST = awk '{ print > "/dev/stderr"; last = $$0 } END { print last }'

# Record one benchmark result in the committed trajectory,
# benchmarks/BENCH_perfbench.jsonl.  A run that ends correct with no
# failed operations appends one line {commit, workload, seed, nproc,
# metrics}; any other run records nothing and fails.  e.g.
# `make perfbench-record WORKLOAD=job SEED=1`.
PERFBENCH_RECORD = $(PYTHON) -c 'import json, os, subprocess, sys; \
	r = json.loads(sys.stdin.read()); \
	r["correct"] is True and r["failed"] == 0 or sys.exit( \
		"error: run not correct or with failed operations, not recorded"); \
	commit = subprocess.run(["git", "describe", "--always", "--dirty", \
		"--abbrev=12", "--exclude=*"], capture_output=True, text=True, \
		check=True).stdout.strip(); \
	line = {"commit": commit, "workload": sys.argv[1], \
		"seed": int(sys.argv[2]), "nproc": len(os.sched_getaffinity(0)), \
		"metrics": {k: m["value"] for k, m in r["metrics"].items()}}; \
	open(sys.argv[3], "a").write(json.dumps(line, sort_keys=True) + "\n")'
perfbench-record:
	$(PYTHON) perfbench/run.py --workload $(WORKLOAD) --seed $(SEED) \
		--seconds 15 --trace 0 | $(PERFBENCH_LAST) | \
		$(PERFBENCH_RECORD) $(WORKLOAD) $(SEED) benchmarks/BENCH_perfbench.jsonl

# Benchmark smoke (CI's PR gate): short traced serve, campaign, job and
# analyze runs must each end in a correct result with no failed
# operations, so a program change that breaks the benchmark's wrappers
# (the `run_campaign`, io and analysis ones included) or output digests
# fails here.  `job` ignores --seconds: it runs its plain and traced
# 1,000-click served campaign, the checkpointed serve path.
PERFBENCH_OK = $(PYTHON) -c 'import json, sys; \
	r = json.loads(sys.stdin.read()); \
	sys.exit(not (r["correct"] is True and r["failed"] == 0))'
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload serve --seed 1 --seconds 2 \
		--trace 1 | $(PERFBENCH_LAST) | $(PERFBENCH_OK)
	$(PYTHON) perfbench/run.py --workload campaign --seed 1 --seconds 2 \
		--trace 1 | $(PERFBENCH_LAST) | $(PERFBENCH_OK)
	$(PYTHON) perfbench/run.py --workload job --seed 1 --seconds 2 \
		--trace 1 | $(PERFBENCH_LAST) | $(PERFBENCH_OK)
	$(PYTHON) perfbench/run.py --workload analyze --seed 1 --seconds 2 \
		--trace 1 | $(PERFBENCH_LAST) | $(PERFBENCH_OK)

# Serving smoke: boot the real service, run a scripted request session
# (the same check twice, equal to the in-process batch path's two
# checks; campaign job to completion, results download, health), then
# SIGTERM it and assert a clean exit (benchmarks/serve_smoke.py).  The
# second run repeats the session with the job on a 2-worker pool and
# demands a quiet fleet_health and the inline session's result bytes.
serve-smoke:
	$(PYTHON) benchmarks/serve_smoke.py --workers 1
	$(PYTHON) benchmarks/serve_smoke.py --workers 2

# Run every example (docs/EXAMPLES.md shows expected output); the crawl
# runs twice, inline and across 2 worker processes.  CI runs this on push
# and on pull requests.
examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/crowd_campaign.py
	$(PYTHON) examples/systematic_crawl.py
	$(PYTHON) examples/systematic_crawl.py 2
	$(PYTHON) examples/currency_guard_demo.py
	$(PYTHON) examples/kindle_login_study.py
