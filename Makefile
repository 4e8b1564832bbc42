GO ?= go

.PHONY: build test race lint lint-sarif vet bench bench-ml bench-core

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Repo-specific contract analyzers (CoW mutation, map-order determinism,
# seeded randomness, context flow, fault contract, lock order, wire format,
# error wrapping). Findings matching the committed lint.baseline.json are
# demoted to warnings; anything fresh exits non-zero. See DESIGN.md
# "Contract enforcement".
lint: vet
	$(GO) run ./cmd/dataprismlint -baseline lint.baseline.json ./...

# SARIF report for CI artifact upload / code-scanning ingestion.
lint-sarif:
	$(GO) run ./cmd/dataprismlint -baseline lint.baseline.json -sarif lint.sarif.json ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The model-fitting micro-benchmarks (the Income-shaped forest among them),
# with allocations, five runs each for comparing two commits, on one and
# two cores so that the parallel forest fit's scaling shows.
bench-ml:
	$(GO) test -run='^$$' -bench=. -benchmem -count=5 -cpu 1,2 ./internal/ml/

# The group-intervention micro-benchmark: 16 Selectivity PVTs composed over a
# 200k-row EZGo batch, with allocations, five runs for comparing two commits.
bench-core:
	$(GO) test -run='^$$' -bench=GroupIntervention -benchmem -count=5 ./internal/core/
