GO ?= go

.PHONY: all build test race lint allocs scale paper-io paper-io-cmp text-cmp baselines bench-smoke loc fmt clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# lint is stock go vet; the repo's own invariants are checked by tests
# (see "Static analysis & invariants" in README.md).
lint:
	$(GO) vet ./...

# allocs is the allocation gate: TestAllocBudget holds the write, churn
# and read windows to the budgets committed in BENCH_allocs.json (see
# allocbench_test.go), and the per-layer tests hold the overlay reads
# exact and the tree's search, its overflow path, the batch planner,
# LBU's batch pass and a blocked DGL acquire at zero allocations.
ALLOC_TESTS = TestAllocBudget|TestOverlayReadAllocsIgnoreDepth|TestSearchAllocatesNothing|TestOverflowPathAllocatesNothing|TestPlanningReusesItsBuffers|TestLBUBatchAllocatesNothing|TestBlockedAcquireAllocatesNothing
allocs:
	$(GO) test -run '^($(ALLOC_TESTS))$$' -count=1 -v . ./internal/rtree ./internal/core ./internal/dgl

# scale runs the two-writer scaling instrument (scale_test.go): µs/move,
# wall and CPU, for one batch writer, two on one ConcurrentIndex and two
# on an index each. Not a gate — the reference box moves ±10 % between
# minutes — its figures are recorded in CHANGES.md by hand. For the parks
# per batch, add `-blockprofile block.out -blockprofilerate 1` to one leg
# and read `go tool pprof -sample_index=contentions -top`.
scale:
	$(GO) test -run '^$$' -bench BenchmarkTwoWriters -benchtime 1x -count 3 -timeout 30m .

# paper-io prints the deterministic §5 I/O tables as CSV: every
# page-counted experiment, plus batch without its timed updates/s rows.
# The output is a function of SCALE alone (the seed is fixed at 1), so
# two checkouts compared with cmp show whether a change moved a page.
# Progress goes to stderr: `make paper-io > io.csv`. The batch table is
# written to a file first so a failing burbench fails the target rather
# than leaving grep's status behind.
SCALE ?= 0.5
PAPER_IO = fig5a,fig5b,fig5e,fig5f,fig5g,fig5h,fig6a,fig6b,fig6c,fig6d,fig6e,fig6f,fig6g,fig6h,fig7a,fig7b,naive,cost,table-summary-size,ablation-piggyback,ablation-summary-queries,ablation-splits

paper-io: bin/burbench
	@bin/burbench -experiment $(PAPER_IO) -scale $(SCALE) -seed 1 -csv
	@bin/burbench -experiment batch -scale $(SCALE) -seed 1 -csv > bin/paper-io-batch.csv
	@grep -v 'updates/s' bin/paper-io-batch.csv

# paper-io-cmp shows whether the working tree moved a page against REF
# (default HEAD): it checks REF out into a temporary git worktree, runs
# paper-io there and here at the same SCALE, and cmps the two tables.
# It fails if either run fails or the tables differ, and removes the
# worktree on every exit.
REF ?= HEAD
paper-io-cmp:
	@tmp=$$(mktemp -d) && trap 'git worktree remove --force "$$tmp/ref" 2>/dev/null; rm -rf "$$tmp"' EXIT && \
	git worktree add --detach --quiet "$$tmp/ref" "$(REF)" && \
	$(MAKE) -s -C "$$tmp/ref" paper-io SCALE=$(SCALE) > "$$tmp/ref.csv" && \
	$(MAKE) -s paper-io SCALE=$(SCALE) > "$$tmp/tree.csv" && \
	cmp "$$tmp/ref.csv" "$$tmp/tree.csv" && \
	echo "paper-io-cmp: $$(wc -l < "$$tmp/tree.csv") lines at SCALE=$(SCALE), identical to $(REF)"

# text-cmp shows whether the working tree moved library code against REF
# (default HEAD). It builds bench's binary in a temporary git worktree of
# REF and in the working tree, then compares the text symbols, name and
# address, of the packages the linker lays out first, in this order —
# where paper-gbu's update loop runs. A 32-byte shift of them moves that
# workload's timings with no work changed. internal/hashindex, which
# paper-gbu runs too, is not listed: the linker lays it out after
# internal/shard and the root package. It prints "identical" or the
# first moved symbol with its shift mod 64, exits non-zero on a move, and
# removes the worktree on every exit.
TEXT_PKGS = stats|pagestore|buffer|geom|hilbert|rtree|summary|core
text-cmp:
	@tmp=$$(mktemp -d) && trap 'git worktree remove --force "$$tmp/ref" 2>/dev/null; rm -rf "$$tmp"' EXIT && \
	git worktree add --detach --quiet "$$tmp/ref" "$(REF)" && \
	$(GO) -C "$$tmp/ref/bench" build -o "$$tmp/ref.bin" . && \
	$(GO) -C bench build -o "$$tmp/tree.bin" . && \
	for b in ref tree; do \
		$(GO) tool nm -n "$$tmp/$$b.bin" | \
		awk '$$2 ~ /^[Tt]$$/ && $$3 ~ /^burtree\/internal\/($(TEXT_PKGS))\./ {print $$1, $$3}' > "$$tmp/$$b.sym" || exit 1; \
	done && \
	first=$$(awk 'NR == FNR {a[FNR] = $$1; s[FNR] = $$2; n = FNR; next} \
		$$1 != a[FNR] || $$2 != s[FNR] {print a[FNR] "-", s[FNR] "-", $$1 "-", $$2 "-"; d = 1; exit} \
		END {if (!d && FNR != n) print a[FNR+1] "-", s[FNR+1] "-", "-", "-"}' "$$tmp/ref.sym" "$$tmp/tree.sym") && \
	if [ -z "$$first" ]; then \
		echo "text-cmp: $$(wc -l < "$$tmp/tree.sym") symbols of $(TEXT_PKGS) identical to $(REF)"; \
	else \
		set -- $$first; ra=$${1%-}; rs=$${2%-}; ta=$${3%-}; ts=$${4%-}; \
		if [ -n "$$rs" ] && [ "$$rs" = "$$ts" ]; then \
			echo "text-cmp: $$ts moved from 0x$$ra to 0x$$ta, shift mod 64 = $$(( ((0x$$ta - 0x$$ra) % 64 + 64) % 64 ))"; \
		else \
			echo "text-cmp: first difference: $(REF) has $${rs:-nothing} at 0x$${ra:-?}, the tree has $${ts:-nothing} at 0x$${ta:-?}"; \
		fi; exit 1; \
	fi

bin/burbench: FORCE
	@$(GO) build -o bin/burbench ./cmd/burbench

# baselines keeps the committed BENCH_*.json files and the references to
# them in step: every one a .go, .md, Makefile or workflow file names is
# committed, and every committed one is named by at least one of them.
# CHANGES.md, ROADMAP.md and ISSUE.md are history and task text, which
# name retired files on purpose.
baselines:
	@named=$$(git ls-files '*.go' '*.md' Makefile '.github/workflows/*' \
		| grep -vxE 'CHANGES\.md|ROADMAP\.md|ISSUE\.md' \
		| xargs grep -ohE 'BENCH_[A-Za-z0-9]+\.json' | sort -u); \
	have=$$(git ls-files 'BENCH_*.json'); bad=; \
	for f in $$named; do echo "$$have" | grep -qx "$$f" || { echo "baselines: $$f is named but not committed"; bad=1; }; done; \
	for f in $$have; do echo "$$named" | grep -qx "$$f" || { echo "baselines: $$f is committed but nothing names it"; bad=1; }; done; \
	[ -z "$$bad" ] && echo "baselines: $$(echo $$have) committed and named"

# bench-smoke builds and smoke-tests the end-to-end benchmark (bench/ is
# a module of its own, which `go build ./... && go test ./...` skips), so
# a change to an internal signature its micro-drivers call fails here.
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# loc prints the root package's non-test code lines — no blank and no
# comment-only lines — per file and for the package, then the same count
# for each internal package the library is built from (what package
# burtree imports, directly or not) and the library total, and last the
# harness's, per package and in total: cmd/burbench,
# cmd/burload, cmd/burstat and every package of this module they reach
# that the library does not (internal/exp, its cost model, workload
# generator and paged hash index), without tests. These are the figures
# the simplicity PRs report in CHANGES.md.
HARNESS = ./cmd/burbench ./cmd/burload ./cmd/burstat
loc:
	@count() { cat $$(ls $$1/*.go | grep -v '_test\.go$$') | grep -cvE '^\s*$$|^\s*//'; }; \
	total=0; for f in $$(ls *.go | grep -v '_test\.go$$'); do \
		n=$$(grep -cvE '^\s*$$|^\s*//' $$f); total=$$((total+n)); printf '%-20s %5d\n' $$f $$n; \
	done; printf '%-20s %5d\n' 'package burtree' $$total; \
	libpkgs=$$($(GO) list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' . | grep '/internal/' | sort); \
	lib=$$total; for p in $$libpkgs; do \
		d=$${p#burtree/}; n=$$(count $$d); lib=$$((lib+n)); printf '%-20s %5d\n' $$d $$n; \
	done; printf '%-20s %5d\n' 'library' $$lib; \
	harness=0; for p in $$($(GO) list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' $(HARNESS) | grep -E '^burtree/(internal|cmd)/' | sort); do \
		echo "$$libpkgs" | grep -qx "$$p" && continue; \
		d=$${p#burtree/}; n=$$(count $$d); harness=$$((harness+n)); printf '%-20s %5d\n' $$d $$n; \
	done; printf '%-20s %5d\n' 'harness' $$harness

fmt:
	gofmt -w $$(git ls-files '*.go')

clean:
	rm -rf bin

.PHONY: FORCE
FORCE:
