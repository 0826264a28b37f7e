GO      ?= go
PKGS    := ./...
# Packages with benchmarks: the hot-path micro-benchmarks and the torture
# schedule mix.
BENCHPKGS := ./internal/radix ./internal/mem ./internal/cache ./internal/core ./internal/alloc ./internal/torture
BENCHTIME ?= 2s
BENCHDIR  := bench

.PHONY: all build test race vet lint bench bench-baseline bench-cmp bench-smoke clean

all: build test

build:
	$(GO) build $(PKGS)

test:
	$(GO) test $(PKGS)

race:
	$(GO) test -race $(PKGS)

vet:
	$(GO) vet $(PKGS)

# Pinned staticcheck release; CI installs exactly this version. Locally:
# go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
STATICCHECK_VERSION := 2025.1.1

# Static checks: stock go vet, then the project's own seven analyzers —
# the intraprocedural four (maporder, walltime, hotalloc, deferclose; see
# DESIGN.md §9) plus the interprocedural three (hotpathprop, persistguard,
# gosafety; DESIGN.md §14) over one module-wide summary table —
# with the escape-hatch audit (-report: per-directive counts, exit 1 on any
# finding or on a stale / unknown / reason-less //thynvm: directive), then
# staticcheck when installed (skipped, not failed, in hermetic environments
# with no module cache). CI uploads the output as an artifact.
lint:
	$(GO) vet $(PKGS)
	$(GO) run ./cmd/thynvm-lint -report $(PKGS)
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck $(PKGS); \
	else \
		echo "staticcheck not installed; skipping (pin: staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# Run the hot-path benchmarks and save the result for comparison.
bench:
	@mkdir -p $(BENCHDIR)
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=$(BENCHTIME) $(BENCHPKGS) | tee $(BENCHDIR)/new.txt

# Capture a baseline (run this on the commit you want to compare against).
bench-baseline:
	@mkdir -p $(BENCHDIR)
	$(GO) test -run=NONE -bench=. -benchmem -benchtime=$(BENCHTIME) $(BENCHPKGS) | tee $(BENCHDIR)/old.txt

# Compare baseline vs current. Uses benchstat when installed
# (go install golang.org/x/perf/cmd/benchstat@latest); falls back to a
# side-by-side diff so the flow works in hermetic environments.
bench-cmp:
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(BENCHDIR)/old.txt $(BENCHDIR)/new.txt; \
	else \
		echo "benchstat not installed; raw comparison:"; \
		diff -y --width=160 $(BENCHDIR)/old.txt $(BENCHDIR)/new.txt || true; \
	fi

# One-iteration run of every benchmark: catches bit-rot in CI without
# spending benchmark time.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x $(BENCHPKGS)

clean:
	rm -rf $(BENCHDIR)
