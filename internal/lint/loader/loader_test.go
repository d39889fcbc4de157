package loader_test

import (
	"path/filepath"
	"strings"
	"testing"

	"burtree/internal/lint/loader"
)

// TestFixtureLoadErrors: a fixture package that does not type-check
// must surface the error — a lint run that skips what it cannot load
// reports "clean" for code it never saw.
func TestFixtureLoadErrors(t *testing.T) {
	dir, err := filepath.Abs("../testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	l := loader.NewFixtureLoader(dir)
	if _, err := l.Load("broken"); err == nil {
		t.Error("Load(broken) succeeded, want a type-checking error")
	} else if !strings.Contains(err.Error(), "type-checking") {
		t.Errorf("Load(broken) = %v, want a type-checking error", err)
	}
	if _, err := l.Load("no-such-fixture"); err == nil {
		t.Error("Load(no-such-fixture) succeeded, want an error")
	}
}
