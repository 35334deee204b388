package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildLintTool compiles pangea-lint into dir and returns the binary path.
func buildLintTool(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "pangea-lint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building pangea-lint: %v\n%s", err, out)
	}
	return bin
}

// TestVettoolProtocol drives the binary through the real `go vet -vettool`
// driver: the probe handshake, a clean run over the shipped tree, and a
// firing run over a testdata package that violates the errdrop invariant.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the tool and runs go vet over the module; skipped in -short")
	}
	bin := buildLintTool(t, t.TempDir())

	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full probe: %v", err)
	}
	if !strings.Contains(string(out), "version") {
		t.Fatalf("-V=full output %q lacks a version line", out)
	}

	// Clean run: the shipped tree must lint clean through the vet driver
	// exactly as it does in standalone mode.
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = repoRoot(t)
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool over clean tree failed: %v\n%s", err, out)
	}

	// Firing run: testdata/firing drops a pfs.PagedFile.Close error, which
	// the default errdrop rules flag. It is checked in, and vetted by explicit
	// path: no test writes inside the module tree, where a package that comes
	// and goes races every other test that loads ./... (internal/lint's
	// TestRealTreeClean runs beside this one).
	vet = exec.Command("go", "vet", "-vettool="+bin, "./cmd/pangea-lint/testdata/firing")
	vet.Dir = repoRoot(t)
	var stderr bytes.Buffer
	vet.Stderr = &stderr
	if err := vet.Run(); err == nil {
		t.Fatalf("go vet -vettool did not fail on testdata/firing; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "errdrop") {
		t.Fatalf("vet output lacks the errdrop diagnostic:\n%s", stderr.String())
	}
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // cmd/pangea-lint -> repo root
}
