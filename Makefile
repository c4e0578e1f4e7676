# Convenience targets for the unXpec reproduction.

PYTHON ?= python

# A bare `make` runs the tests; `make install` is always explicit.
.DEFAULT_GOAL := test

# Every target runs the package from this checkout's src/ (no install
# needed); a caller's PYTHONPATH is kept after it.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test bench bench-core bench-e2e coverage experiments report quick-report campaign-smoke campaign-fault-smoke campaign-top invariance-smoke stats examples lint specct-smoke clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Core hot-path microbenchmark (docs/performance.md): times one fig3
# attack round and synthetic-workload execution, rewrites BENCH_core.json,
# and fails if the calibration-normalized metrics regressed >25% against
# the committed baseline.
bench-core:
	$(PYTHON) -m pytest benchmarks/test_bench_core.py -q
	@$(PYTHON) -c "import json; d = json.load(open('BENCH_core.json')); \
	    m, s = d['measured'], d['speedup_vs_seed']; \
	    print('bench-core: %.3f ms/round (%.2fx vs seed), %.0f inst/s (%.2fx)' % \
	    (m['fig3_round_ms'], s['fig3_round_normalized'], \
	     m['synthetic_ips'], s['synthetic_ips_normalized']))"

# End-to-end benchmark (benchmarks/e2e/README.md): all four workloads at
# seeds 0 and 1, results in .bench-out/bench-e2e.json (seed 0) and
# .bench-out/bench-e2e-seed1.json. Fails when a workload crashes or fails
# its output checks (run.py exits non-zero), or when any workload's
# sim_digest at either seed differs from the one stored in baselines.json.
# Timings are recorded, not gated: a timing claim needs the paired runs
# of compare.py --run.
bench-e2e:
	@mkdir -p .bench-out
	python3 benchmarks/e2e/run.py --seed 0 --out .bench-out/bench-e2e.json
	python3 benchmarks/e2e/run.py --seed 1 --out .bench-out/bench-e2e-seed1.json
	@python3 -c "import json; \
	    runs = {(seed, name): r for seed, path in \
	        ((0, '.bench-out/bench-e2e.json'), (1, '.bench-out/bench-e2e-seed1.json')) \
	        for name, r in json.load(open(path))['workloads'].items()}; \
	    bad = {key: (r['diagnostics']['sim_digest'], r['diagnostics']['sim_digest_stored']) \
	        for key, r in runs.items() \
	        if r['diagnostics']['sim_digest'] != r['diagnostics']['sim_digest_stored']}; \
	    assert {seed for seed, _ in runs} == {0, 1}, 'missing a seed: %r' % sorted(runs); \
	    assert not bad, 'sim_digest differs from baselines.json: %r' % bad; \
	    print('bench-e2e: %d workload runs at seeds 0 and 1, every sim_digest matches stored' % len(runs))"

experiments:
	$(PYTHON) -m repro.experiments all

report:
	$(PYTHON) -m repro.experiments report --out REPORT.md

quick-report:
	$(PYTHON) -m repro.experiments report --quick --out REPORT.md

# Campaign engine smoke: the full quick report on 1 and 2 workers, no
# cache, then assert the merged stats + trace + span-tree sections are
# bit-identical (the docs/campaign.md determinism contract), and that the
# events stream renders in campaign_top. CI uploads the artifacts
# (reports, stats, OpenMetrics, events).
campaign-smoke:
	$(PYTHON) -m repro.experiments report --quick --jobs 1 --no-cache \
	    --out REPORT-campaign-jobs1.md --stats-out campaign-stats-jobs1.json \
	    --metrics-out campaign-metrics-jobs1.prom --events-out campaign-events-jobs1.jsonl
	$(PYTHON) -m repro.experiments report --quick --jobs 2 --no-cache \
	    --out REPORT-campaign-jobs2.md --stats-out campaign-stats-jobs2.json \
	    --metrics-out campaign-metrics-jobs2.prom --events-out campaign-events-jobs2.jsonl
	$(PYTHON) -c "import json; a, b = (json.load(open(p)) for p in \
	    ('campaign-stats-jobs1.json', 'campaign-stats-jobs2.json')); \
	    assert a['stats'] == b['stats'] and a['trace'] == b['trace'], \
	    'jobs=1 vs jobs=2 stats diverged'; \
	    assert a['spans'] == b['spans'], 'jobs=1 vs jobs=2 span trees diverged'; \
	    print('campaign-smoke: jobs-invariant')"
	$(PYTHON) -c "from repro.campaign.events import read_events, canonical_events; \
	    import json; a, b = (canonical_events(read_events(p)) for p in \
	    ('campaign-events-jobs1.jsonl', 'campaign-events-jobs2.jsonl')); \
	    assert a == b, 'jobs=1 vs jobs=2 canonical event streams diverged'; \
	    print('campaign-smoke: canonical events jobs-invariant')"
	$(PYTHON) -m repro.tools.campaign_top campaign-events-jobs2.jsonl

# Invariance smoke for one experiment (EXP=matrix | ext_rewind |
# ext_interference | synth; see docs/matrix.md, docs/channels.md and
# docs/static-analysis.md): run it at quick scale on 1 and 4 workers, no
# cache, and assert the two result JSONs are byte-identical (the
# docs/campaign.md determinism contract). The experiment's own checks
# must pass too. CI uploads REPORT-$(EXP).md and $(EXP)-jobs1.json.
invariance-smoke:
	@test -n "$(EXP)" || { echo 'usage: make invariance-smoke EXP=<experiment id>'; exit 2; }
	$(PYTHON) -m repro.experiments $(EXP) --quick --jobs 1 --no-cache \
	    --json $(EXP)-jobs1.json > REPORT-$(EXP).md
	@cat REPORT-$(EXP).md
	$(PYTHON) -m repro.experiments $(EXP) --quick --jobs 4 --no-cache \
	    --json $(EXP)-jobs4.json
	$(PYTHON) -c "import json; a, b = (json.load(open(p)) for p in \
	    ('$(EXP)-jobs1.json', '$(EXP)-jobs4.json')); \
	    assert a == b, '$(EXP) results diverged across jobs counts'; \
	    print('invariance-smoke: $(EXP) jobs-invariant')"

# Live dashboard over an --events-out stream (EVENTS=path to override).
EVENTS ?= campaign-events.jsonl
campaign-top:
	$(PYTHON) -m repro.tools.campaign_top $(EVENTS) --follow

# Fault-injection smoke (docs/campaign.md "Failure model"): force every
# fig9 shard down, then assert the campaign still finishes, exits
# non-zero, marks exactly fig9 FAILED with a traceback section, and no
# other experiment's row regressed.
campaign-fault-smoke:
	@REPRO_FAULT_INJECT='fig9:*:*:AssertionError' \
	    $(PYTHON) -m repro.experiments report --quick --jobs 4 --no-cache \
	    --retries 0 --out REPORT-faults.md; \
	    status=$$?; \
	    if [ $$status -eq 0 ]; then echo 'FAIL: expected non-zero exit'; exit 1; fi; \
	    echo "campaign-fault-smoke: exit code $$status (non-zero, as required)"
	@$(PYTHON) -c "import sys; \
	    text = open('REPORT-faults.md').read(); \
	    rows = [l for l in text.splitlines() if l.startswith('| \`')]; \
	    failed = [l for l in rows if 'FAILED' in l]; \
	    assert len(failed) == 1 and 'fig9' in failed[0], failed; \
	    assert '<details>' in text and 'AssertionError' in text, 'no traceback section'; \
	    bad = [l for l in rows if 'FAIL' in l and 'fig9' not in l]; \
	    assert not bad, 'other experiments regressed: %r' % bad; \
	    print('campaign-fault-smoke: FAILED row isolated to fig9, others pass')"

stats:
	$(PYTHON) -m repro.experiments fig3 --quick --stats-out stats.json
	$(PYTHON) -m repro.obs stats.json --profile

# Repo lint: the AST determinism checker (always), then ruff if it is
# installed (CI installs it; locally it is optional).
lint:
	$(PYTHON) -m repro.tools.lint_determinism src/repro
	$(PYTHON) -m repro.tools.lint_determinism --only DET007 tests
	@if command -v ruff >/dev/null 2>&1; then \
	    ruff check .; \
	else \
	    echo "ruff not installed; skipping style lint (CI runs it)"; \
	fi

# Static-analyzer smoke: the gadget/workload/fig3 cross-validation suite
# (every gadget flagged, every safe workload clean, static cache-delta
# sign agrees with the dynamic timing delta), plus one example lint of
# the paper's gadget via the main CLI alias.
specct-smoke:
	$(PYTHON) -m repro.analysis.specct --crossval --quick
	$(PYTHON) -m repro.experiments lint-program gadget:round --n-loads 2; \
	    status=$$?; \
	    if [ $$status -ne 1 ]; then \
	        echo "FAIL: expected exit 1 (findings) for the gadget, got $$status"; exit 1; \
	    fi; \
	    echo "specct-smoke: gadget flagged (exit 1), cross-validation passed"

# Line-coverage floor over the core (src/repro/cpu), the decoded-program
# tables (src/repro/isa/decoded.py) and the analyses; uses coverage.py when
# installed, else a stdlib tracer. Writes COVERAGE.json (CI artifact).
coverage:
	$(PYTHON) -m repro.tools.coverage_gate --out COVERAGE.json

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/asm_victim.py
	$(PYTHON) examples/spectre_vs_cleanupspec.py
	$(PYTHON) examples/eviction_set_construction.py
	$(PYTHON) examples/timeline_visualizer.py
	$(PYTHON) examples/covert_channel_demo.py
	$(PYTHON) examples/mitigation_tradeoff.py

clean:
	rm -rf .pytest_cache .hypothesis build dist *.egg-info REPORT.md REPORT-faults.md
	rm -f REPORT-*.md *-jobs1.json *-jobs2.json *-jobs4.json \
	    campaign-metrics-jobs*.prom campaign-metrics-jobs*.prom.folded \
	    campaign-events-jobs*.jsonl
	find . -name __pycache__ -type d -exec rm -rf {} +
