GO ?= go

.PHONY: all build test race lint burlint allocs bench-smoke fmt clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# burlint: the repo's invariant analyzers (see internal/lint and the
# "Static analysis & invariants" section of README.md), run through the
# go vet -vettool protocol — the only one the tool speaks — so results
# land in the build cache; ./... covers the analyzers and the tool too.
burlint: bin/burlint
	$(GO) vet -vettool=$(CURDIR)/bin/burlint ./...

bin/burlint: FORCE
	$(GO) build -o bin/burlint ./cmd/burlint

lint: burlint
	$(GO) vet ./...
	$(GO) test ./internal/lint/...

# allocs enforces the hot-path allocation budgets committed in
# BENCH_allocs.json (see allocbench_test.go).
allocs:
	$(GO) test -run TestAllocBudget -count=1 -v .

# bench-smoke builds and smoke-tests the end-to-end benchmark (bench/ is
# a module of its own, which `go build ./... && go test ./...` skips), so
# a change to an internal signature its micro-drivers call fails here.
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

fmt:
	gofmt -w $$(git ls-files '*.go')

clean:
	rm -rf bin

.PHONY: FORCE
FORCE:
