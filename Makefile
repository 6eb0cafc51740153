# Offline-friendly targets for the repro repository.

PYTHON ?= python3

.PHONY: install test bench bench-timed examples report fuzz validate loc

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Smoke mode: run every benchmarks/bench_*.py once (no timing repeats)
# and refresh every BENCH_*.json artifact in one command.
bench:
	$(PYTHON) -m pytest benchmarks/ -q --benchmark-disable

bench-timed:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f > /dev/null || exit 1; echo OK; done

report:
	$(PYTHON) -m repro report

fuzz:
	$(PYTHON) -m repro fuzz --programs 100

validate:
	$(PYTHON) -m repro validate

loc:
	@find src tests benchmarks examples tools -name "*.py" | xargs wc -l | tail -1
