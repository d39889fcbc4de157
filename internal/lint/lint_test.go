package lint_test

import (
	"path/filepath"
	"testing"

	"burtree/internal/lint"
	"burtree/internal/lint/analysistest"
)

// run applies the named analyzer to the same-named fixture package
// under testdata/src. Each fixture mixes positive lines (with // want
// expectations) and negative lines (clean code the test asserts stays
// clean).
func run(t *testing.T, name string) {
	t.Helper()
	a := lint.ByName(name)
	if a == nil {
		t.Fatalf("no analyzer named %q in the registry", name)
	}
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	analysistest.Run(t, dir, a, name)
}

func TestClosecheck(t *testing.T) { run(t, "closecheck") }

// TestRegistry pins the suite's composition: one analyzer, with its
// doc.
func TestRegistry(t *testing.T) {
	all := lint.All()
	want := []string{"closecheck"}
	if len(all) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(all), len(want))
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Errorf("analyzer %d = %q, want %q", i, all[i].Name, name)
		}
		if all[i].Doc == "" {
			t.Errorf("analyzer %q has no doc", name)
		}
		if all[i].Run == nil {
			t.Errorf("analyzer %q has no run function", name)
		}
	}
}
