# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); the tool versions pinned here are the ones
# the lint job installs, so a local `make lint` reproduces the gate.

STATICCHECK_VERSION = 2024.1.1
GOVULNCHECK_VERSION = v1.1.3

.PHONY: all build test race fuzz lint topolint fmt vuln bench bench-baseline perfbench

all: build lint test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# fuzz is CI's short fuzzing step: canonical encodings of degenerate
# rectangle instances against the reference encoder and under
# homeomorphisms.
fuzz:
	go test -run '^$$' -fuzz FuzzCanonical -fuzztime 20s ./internal/invariant

# lint is the full static gate: vet, formatting (analyzer fixtures under
# internal/lint/testdata are position-sensitive test inputs and excluded),
# staticcheck at the pinned version, and the in-tree topolint suite.
lint: topolint
	go vet ./...
	@out=$$(gofmt -l . | grep -v '^internal/lint/testdata/' || true); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi
	go run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# topolint runs the project's own analyzers (ratexact, mapdeterminism,
# lockdiscipline, ctxflow, errcompare). It is stdlib-only — no module
# downloads — so it works offline.
topolint:
	go run ./cmd/topolint ./...

fmt:
	@files=$$(gofmt -l . | grep -v '^internal/lint/testdata/' || true); \
	[ -z "$$files" ] || gofmt -w $$files

# vuln is advisory (CI runs it continue-on-error): known-vulnerable call
# paths, gated on the pinned scanner version rather than a floating tip.
vuln:
	go run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

bench:
	go test -run '^$$' -bench . -benchtime 1x ./...

# bench-baseline regenerates the newest committed BENCH_prN.json with the
# exact benchtab invocation CI's `-compare auto` gate resolves against.
# Run it on the CI hardware class (one writer core) before committing a
# perf PR's baseline.
bench-baseline:
	@n=$$(ls BENCH_pr*.json 2>/dev/null | sed -E 's/.*BENCH_pr([0-9]+)\.json/\1/' | sort -n | tail -1); \
	[ -n "$$n" ] || { echo "no BENCH_prN.json baseline found" >&2; exit 1; }; \
	echo "regenerating BENCH_pr$$n.json"; \
	go run ./cmd/benchtab -json bench > BENCH_pr$$n.json

# perfbench is CI's perfbench job: vet and race-test the benchmark module,
# then a traced served_mixed replay that exits non-zero on a wrong answer
# or a derivation-mode cross-check mismatch (never on timing).
perfbench:
	cd perfbench && go vet ./... && go test -race ./...
	bash perfbench/run.sh --workload served_mixed --seed 1 --seconds 3 --trace 1
