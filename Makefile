GO ?= go

.PHONY: all build test race lint allocs scale paper-io paper-io-cmp text-cmp baselines run-patterns bench-smoke loc fmt clean

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
# allocbench_test.go), TestWholeSpaceReadAllocs holds whole-space reads
# over 1 000, 5 000 and 20 000 objects, on one stack and on four shards,
# to theirs, TestObjectRecordBytes holds the live heap bytes per object of
# a bulk-loaded index to the bytes_per_object budgets in the same file,
# and the per-layer tests
# hold the overlay reads exact and the tree's search, its overflow path,
# the batch planner, LBU's batch pass and a blocked DGL acquire at zero
# allocations.
ALLOC_TESTS = TestAllocBudget|TestWholeSpaceReadAllocs|TestObjectRecordBytes|TestOverlayReadAllocsIgnoreDepth|TestSearchAllocatesNothing|TestOverflowPathAllocatesNothing|TestPlanningReusesItsBuffers|TestLBUBatchAllocatesNothing|TestBlockedAcquireAllocatesNothing
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
PAPER_IO = fig5a,fig5b,fig5e,fig5f,fig5g,fig5h,fig6a,fig6b,fig6c,fig6d,fig6e,fig6f,fig6g,fig6h,fig7a,fig7b,naive,cost,table-summary-size,ablation-piggyback,ablation-summary-queries

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
# address, of every package of this module the binary links: the root
# package burtree and each burtree/internal/... one. A 32-byte shift of
# the code paper-gbu's update loop runs moves that workload's timings
# with no work changed, and the linker lays the standard library out
# ahead of all of them. It prints "identical", or the first moved
# symbol with its shift mod 64 and then, over every symbol both builds
# have, the count compared, how many moved and how many shifted by each
# amount mod 64 (a shift by a multiple of 64 keeps every function's
# cache-line alignment), with the symbols only one build has. It exits
# non-zero on a move, and removes the worktree on every exit. A name is
# the whole rest of nm's line: a generic instantiation's holds spaces.
TEXT_PKGS = burtree and burtree/internal/...
text-cmp:
	@tmp=$$(mktemp -d) && trap 'git worktree remove --force "$$tmp/ref" 2>/dev/null; rm -rf "$$tmp"' EXIT && \
	git worktree add --detach --quiet "$$tmp/ref" "$(REF)" && \
	$(GO) -C "$$tmp/ref/bench" build -o "$$tmp/ref.bin" . && \
	$(GO) -C bench build -o "$$tmp/tree.bin" . && \
	for b in ref tree; do \
		$(GO) tool nm -n "$$tmp/$$b.bin" | \
		awk '$$2 ~ /^[Tt]$$/ && $$3 ~ /^burtree(\/internal\/[^.]+)?\./ { a = $$1; sub(/^ *[^ ]+ +[^ ]+ +/, ""); print a "\t" $$0 }' > "$$tmp/$$b.sym" || exit 1; \
	done && \
	awk -F '\t' -v ref='$(REF)' -v pkgs='$(TEXT_PKGS)' ' \
		function addr(h,  i, v) { h = tolower(h); for (i = 1; i <= length(h); i++) v = v * 16 + index("0123456789abcdef", substr(h, i, 1)) - 1; return v } \
		NR == FNR { a[$$2] = $$1; next } \
		!($$2 in a) { added++; next } \
		{ n++; d = addr($$1) - addr(a[$$2]); m = (d % 64 + 64) % 64; c[m]++ } \
		d != 0 { moved++; if (!first) first = $$2 " moved from 0x" a[$$2] " to 0x" $$1 ", shift mod 64 = " m } \
		{ delete a[$$2] } \
		END { for (k in a) gone++; \
			if (!moved && !gone && !added) { print "text-cmp: " n " symbols of " pkgs " identical to " ref; exit 0 } \
			if (first) print "text-cmp: " first; \
			line = "text-cmp: " n " symbols, " moved + 0 " moved; shift mod 64:"; \
			for (m = 0; m < 64; m++) if (m in c) line = line " " m " ×" c[m]; \
			print line "; " gone + 0 " only in " ref ", " added + 0 " only in the tree"; exit 1 }' \
		"$$tmp/ref.sym" "$$tmp/tree.sym"

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

# run-patterns fails when a go test line of the CI workflow names a test
# that does not exist. go test passes a -run, -bench or -fuzz pattern
# that matches nothing with only "no tests to run", so a renamed or
# deleted test would drop out of its step unseen. For every go test line
# it lists the names in the packages that line runs (go test -list) and
# checks each |-separated alternative of each pattern against the names
# of the kind its flag selects: tests, fuzz targets and examples for
# -run, benchmarks for -bench, fuzz targets for -fuzz. The '^$' that
# turns a line's tests off is skipped. Alternatives are matched with
# grep -E; the workflow's are names and anchors, which read the same in
# Go's regexp syntax.
CI_WORKFLOW = .github/workflows/ci.yml
run-patterns:
	@set -f; out=$$(grep -E '^[[:space:]]*(run: )?go test ' $(CI_WORKFLOW) | sed -E 's/^[[:space:]]*(run: )?//' | \
	while IFS= read -r cmd; do \
		pkgs=$$(printf '%s\n' $$cmd | grep -E '^\.(/|$$)' | tr '\n' ' '); \
		list=$$($(GO) test -list . $$pkgs) || exit 1; \
		printf '%s\n' "$$cmd" | grep -oE -- "-(run|bench|fuzz)[= ]'[^']*'" | \
		while IFS= read -r flag; do \
			kind=$${flag%%[= ]*}; pat=$${flag#*\'}; pat=$${pat%\'}; \
			[ "$$pat" = '^$$' ] && continue; \
			case $$kind in -run) want='^(Test|Fuzz|Example)' ;; -bench) want='^Benchmark' ;; *) want='^Fuzz' ;; esac; \
			printf '%s\n' "$$pat" | tr '|' '\n' | while IFS= read -r alt; do \
				if printf '%s\n' "$$list" | grep -E "$$want" | grep -qE -- "$$alt"; then echo ok; \
				else echo "run-patterns: $$kind alternative $$alt matches nothing in $${pkgs% }"; fi; \
			done; \
		done; \
	done) || { echo "run-patterns: go test -list failed"; exit 1; }; \
	dead=$$(printf '%s\n' "$$out" | grep -v '^ok$$'); \
	[ -z "$$dead" ] || { printf '%s\n' "$$dead"; exit 1; }; \
	echo "run-patterns: $$(printf '%s\n' "$$out" | grep -c '^ok$$') alternatives in $(CI_WORKFLOW), each matches"

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
