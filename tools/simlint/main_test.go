package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles the simlint binary once per test run.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "simlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building simlint: %v\n%s", err, out)
	}
	return bin
}

// runIn runs a command in dir with the workspace disabled (the
// violations module must resolve against its own go.mod) and returns
// combined output and the exit code.
func runIn(t *testing.T, dir string, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v\n%s", name, args, err, buf.String())
		}
		code = ee.ExitCode()
	}
	return buf.String(), code
}

// violationClasses are the analyzer tags each seeded violation must
// produce.
var violationClasses = []string{
	"[wallclock]", "[seededrand]", "[rawgo]", "[maprange]", "[noparkinevent]", "[nolocks]", "[norecover]",
	"[layering]",
}

// TestSeededViolationsVetTool proves the real `go vet -vettool` path
// catches one seeded violation of every class and exits nonzero.
func TestSeededViolationsVetTool(t *testing.T) {
	bin := buildTool(t)
	out, code := runIn(t, "testdata/violations", "go", "vet", "-vettool="+bin, "./...")
	if code == 0 {
		t.Fatalf("go vet -vettool exited 0 on the seeded violations:\n%s", out)
	}
	for _, tag := range violationClasses {
		if !strings.Contains(out, tag) {
			t.Errorf("seeded %s violation not reported; output:\n%s", tag, out)
		}
	}
}

// TestSeededViolationsStandalone proves the standalone audit mode
// reports the same classes.
func TestSeededViolationsStandalone(t *testing.T) {
	bin := buildTool(t)
	out, code := runIn(t, "testdata/violations", bin, "./...")
	if code != 2 {
		t.Fatalf("standalone simlint exit = %d, want 2; output:\n%s", code, out)
	}
	for _, tag := range violationClasses {
		if !strings.Contains(out, tag) {
			t.Errorf("seeded %s violation not reported; output:\n%s", tag, out)
		}
	}
}

// TestVetProtocolHandshake pins the two driver-protocol queries go vet
// issues before any analysis.
func TestVetProtocolHandshake(t *testing.T) {
	bin := buildTool(t)
	out, code := runIn(t, ".", bin, "-V=full")
	if code != 0 || !strings.Contains(out, "version") || !strings.Contains(out, "buildID=") {
		t.Fatalf("-V=full handshake = %q (exit %d), want a version line with a buildID", out, code)
	}
	out, code = runIn(t, ".", bin, "-flags")
	if code != 0 || strings.TrimSpace(out) != "[]" {
		t.Fatalf("-flags handshake = %q (exit %d), want []", out, code)
	}
}
