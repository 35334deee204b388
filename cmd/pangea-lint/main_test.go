package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExitStatus builds the binary and runs it as CI does: it exits 0 on the
// shipped tree, and 1 on a testdata package that violates the errdrop
// invariant, naming the analyzer. testdata/firing is checked in and linted by
// explicit path (./... never matches testdata): no test writes inside the
// module tree, where a package that comes and goes races every other test
// that loads ./... (internal/lint's TestRealTreeClean runs beside this one).
func TestExitStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and lints the module; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "pangea-lint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building pangea-lint: %v\n%s", err, out)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(wd)) // cmd/pangea-lint -> module root
	lint := func(pattern string) (string, int) {
		cmd := exec.Command(bin, pattern)
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return string(out), exit.ExitCode()
		}
		if err != nil {
			t.Fatalf("running pangea-lint %s: %v", pattern, err)
		}
		return string(out), 0
	}

	if out, code := lint("./..."); code != 0 {
		t.Fatalf("pangea-lint ./... exited %d, want 0:\n%s", code, out)
	}
	out, code := lint("./cmd/pangea-lint/testdata/firing")
	if code != 1 {
		t.Fatalf("pangea-lint on testdata/firing exited %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "[errdrop]") {
		t.Fatalf("output lacks an [errdrop] diagnostic:\n%s", out)
	}
}
