package burtree

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestLibraryImportsNoHarness: package burtree is built from the library
// alone. The paper's paged hash index and the §5 experiment harness with
// its cost model and workload generator serve the experiments and the
// tools, and the fault-injecting file system serves the tests; none of
// them may be reached from the package, directly or not.
func TestLibraryImportsNoHarness(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(goTool, "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := strings.Fields(string(out))
	if !slices.Contains(deps, "burtree/internal/core") {
		t.Fatalf("go list -deps names no burtree/internal/core: %q", deps)
	}
	for _, p := range deps {
		for _, banned := range []string{"hashindex", "exp", "costmodel", "workload", "vfs/vfstest"} {
			if b := "burtree/internal/" + banned; p == b || strings.HasPrefix(p, b+"/") {
				t.Errorf("package burtree reaches %s", p)
			}
		}
	}
}
