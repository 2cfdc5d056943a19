# The lint target is the contract: CI's fast lane runs exactly `make lint`,
# so a clean `make lint` locally means the static-analysis gate passes.
GO ?= go

.PHONY: lint test short race fmt check bench-module fuzz figdiff digests loc

## lint: go vet + the opera-lint determinism/hot-path analyzers over ./...
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/opera-lint ./...

## test: tier-1 — build everything, run the full test suite
test:
	$(GO) build ./...
	$(GO) test ./...

## short: the fast-lane test pass (skips the slow packet-level suites)
short:
	$(GO) test -short ./...

## race: the race-detector passes CI runs
race:
	$(GO) test -race ./scenario/ ./internal/workload/ ./internal/sweep/ ./internal/telemetry/ ./internal/obs/
	$(GO) test -race -short -run 'Source' .
	$(GO) test -race -run 'Fault|Flap|Lossy' ./internal/sim/ ./scenario/

## bench-module: vet + test bench/ — its own module, which `./...` at the
## root never compiles (run the benchmark itself with `go run -C bench .`)
bench-module:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

## fuzz: 10 s of each fuzz target (CI's slow lane runs exactly this) —
## the scenario targets resolve only, no simulation (corpus under
## scenario/testdata/fuzz/); FuzzSegQueue is RotorLB's ring deque against
## its slice oracle; FuzzSchedulerDifferential is the timing wheel against
## the heap on raw push/pop/peek op streams with keys reserved now and
## pushed later (a re-armed timer's re-key); FuzzBuildDifferential is
## the bit-parallel routing build against the per-source BFS it replaced,
## on raw directed port maps
fuzz:
	$(GO) test ./scenario/ -run '^$$' -fuzz '^FuzzParseEvents$$' -fuzztime 10s
	$(GO) test ./scenario/ -run '^$$' -fuzz '^FuzzSpecJSON$$' -fuzztime 10s
	$(GO) test ./internal/rotorlb/ -run '^$$' -fuzz '^FuzzSegQueue$$' -fuzztime 10s
	$(GO) test ./internal/eventsim/ -run '^$$' -fuzz '^FuzzSchedulerDifferential$$' -fuzztime 10s
	$(GO) test ./internal/routing/ -run '^$$' -fuzz '^FuzzBuildDifferential$$' -fuzztime 10s

## figdiff: the figure byte-identity harness every refactor runs —
## `make figdiff BASE=<rev> [FIGS=fig11,fig19,fig20]` unpacks BASE into a
## throwaway directory (git archive: no worktree or branch is left behind),
## builds cmd/opera-experiments there and in this tree, regenerates FIGS
## (default fig07–fig10, ~2 min a side) on both sides and fails on any CSV
## difference
FIGDIFF := $(or $(TMPDIR),/tmp)/opera-figdiff
FIGS ?= fig07,fig08,fig09,fig10
figdiff:
	@test -n "$(BASE)" || { echo "usage: make figdiff BASE=<rev> [FIGS=$(FIGS)]"; exit 2; }
	@rm -rf $(FIGDIFF) && mkdir -p $(FIGDIFF)/base
	@status=0; \
	{ git archive $(BASE) | tar -x -C $(FIGDIFF)/base && \
	  $(GO) build -C $(FIGDIFF)/base -o $(FIGDIFF)/exp-base ./cmd/opera-experiments && \
	  $(GO) build -o $(FIGDIFF)/exp-head ./cmd/opera-experiments && \
	  $(FIGDIFF)/exp-base -out $(FIGDIFF)/csv-base -only $(FIGS) >/dev/null && \
	  $(FIGDIFF)/exp-head -out $(FIGDIFF)/csv-head -only $(FIGS) >/dev/null && \
	  diff -r $(FIGDIFF)/csv-base $(FIGDIFF)/csv-head && \
	  echo "figdiff: $(FIGS) CSVs byte-identical to $(BASE)"; } || status=1; \
	rm -rf $(FIGDIFF); exit $$status

## digests: the ledger byte-identity check every refactor runs —
## `make digests BASE=<rev> [SEED=1] [WORKLOADS="shuffle_clos ..."]`
## unpacks BASE into a throwaway directory (as figdiff does), builds bench/
## there and in this tree, runs every BENCHMARK.json workload once a side
## (`-run-one`, GOMAXPROCS=1, ~15 s in all), prints
## P99Us/GoodputGbps/SimEvents/Digest side by side and fails on any
## difference. A change that fires fewer events for the same simulation
## adds EVENTS=moved: P99Us/GoodputGbps/Tax/Flows/Failed are compared;
## SimEvents and Digest (which hashes SimEvents) are printed beside them
## and may differ
DIGESTS := $(or $(TMPDIR),/tmp)/opera-digests
SEED ?= 1
WORKLOADS ?= $(shell sed -n '/"workloads"/,/^  \]/s/.*"name": "\([^"]*\)".*/\1/p' BENCHMARK.json)
ifeq ($(EVENTS),moved)
DIGESTS_CMP := P99Us|GoodputGbps|Tax|Flows|Failed
DIGESTS_SHOW := SimEvents|Digest
else
DIGESTS_CMP := P99Us|GoodputGbps|SimEvents|Digest
DIGESTS_SHOW :=
endif
digests:
	@test -n "$(BASE)" || { echo "usage: make digests BASE=<rev> [SEED=$(SEED)] [EVENTS=moved] [WORKLOADS=...]"; exit 2; }
	@test -z "$(EVENTS)" -o "$(EVENTS)" = moved || { echo "digests: EVENTS=$(EVENTS): the only mode is EVENTS=moved"; exit 2; }
	@rm -rf $(DIGESTS) && mkdir -p $(DIGESTS)/base
	@status=0; \
	pick() { awk -F'[,{}]' -v f="^\"($$1)\":" '{ for (i = 1; i <= NF; i++) if ($$i ~ f) printf "%s ", $$i }' $$2; }; \
	{ git archive $(BASE) | tar -x -C $(DIGESTS)/base && \
	  $(GO) build -C $(DIGESTS)/base/bench -o $(DIGESTS)/bench-base . && \
	  $(GO) build -C bench -o $(DIGESTS)/bench-head . && \
	  for w in $(WORKLOADS); do \
	    for side in base head; do \
	      GOMAXPROCS=1 $(DIGESTS)/bench-$$side -run-one $$w -seed $(SEED) >$(DIGESTS)/$$side.json || status=1; \
	      pick '$(DIGESTS_CMP)' $(DIGESTS)/$$side.json >$(DIGESTS)/$$side.txt; \
	      printf '%-16s %s  %s%s\n' $$w $$side "$$(cat $(DIGESTS)/$$side.txt)" "$$(pick '$(DIGESTS_SHOW)' $(DIGESTS)/$$side.json)"; \
	    done; \
	    cmp -s $(DIGESTS)/base.txt $(DIGESTS)/head.txt || { echo "digests: $$w differs from $(BASE)"; status=1; }; \
	  done; } || status=1; \
	test $$status = 0 && echo "digests: $(WORKLOADS) identical to $(BASE) at seed $(SEED) in $(DIGESTS_CMP)"; \
	rm -rf $(DIGESTS); exit $$status

## loc: non-test, non-testdata Go lines per package outside bench/ and in
## total — the number a deletion PR quotes in CHANGES.md (CI's fast lane
## prints it, so the previous PR's figure is in the log)
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' \
	  | xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
	    END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

## fmt: list files needing gofmt (exits nonzero if any)
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## check: everything a PR should pass locally before push (a refactor also
## runs `make digests BASE=<rev>` and `make figdiff BASE=<rev>`, which need
## the parent commit and minutes, not seconds)
check: fmt lint short bench-module
