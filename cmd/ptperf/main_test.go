package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownExperimentListsRegistry pins the CLI contract: a typo'd
// -exp fails with the experiment registry in the error, so the user
// never needs a second invocation to find the right id.
func TestUnknownExperimentListsRegistry(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "fig99"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	msg := errb.String()
	if !strings.Contains(msg, `unknown experiment "fig99"`) {
		t.Errorf("error does not name the bad experiment: %q", msg)
	}
	for _, id := range []string{"fig2a", "fig5", "table1", "sweep", "scenario:throttle-surge"} {
		if !strings.Contains(msg, id) {
			t.Errorf("error does not list experiment %q: %q", id, msg)
		}
	}
}

// TestUnknownScenarioListsRegistry does the same for -scenario.
func TestUnknownScenarioListsRegistry(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "fig2a", "-scenario", "weathergeddon"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	msg := errb.String()
	if !strings.Contains(msg, `unknown scenario "weathergeddon"`) {
		t.Errorf("error does not name the bad scenario: %q", msg)
	}
	for _, name := range []string{"clean", "throttle-surge", "lossy-path", "bridge-block"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not list scenario %q: %q", name, msg)
		}
	}
}

// TestUnknownTransportListsMethods does the same for -transports, and
// before any world is built: -progress would print a cell line.
func TestUnknownTransportListsMethods(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "fig2a", "-transports", "tor,foo", "-progress"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	msg := errb.String()
	if !strings.Contains(msg, `unknown transport "foo"`) {
		t.Errorf("error does not name the bad transport: %q", msg)
	}
	for _, name := range []string{"tor", "obfs4", "snowflake", "marionette"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not list method %q: %q", name, msg)
		}
	}
	if out.Len() != 0 || strings.Contains(msg, "[cells]") {
		t.Errorf("a campaign started before the transports were checked: stdout %q, stderr %q", out.String(), msg)
	}
}

// TestRepeatedTransportRefused: a method given twice would be measured
// twice into one result and printed as two identical rows; it is
// refused, by name, before any world is built.
func TestRepeatedTransportRefused(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-exp", "fig2a", "-transports", "tor, obfs4,tor", "-sites", "1", "-repeats", "1", "-progress"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	msg := errb.String()
	if !strings.Contains(msg, `transport "tor" given twice`) {
		t.Errorf("error does not name the repeated transport: %q", msg)
	}
	if out.Len() != 0 || strings.Contains(msg, "[cells]") {
		t.Errorf("a campaign started before the transports were checked: stdout %q, stderr %q", out.String(), msg)
	}
}

// TestListShowsExperimentsAndScenarios pins the -list shape both other
// tests' registry errors point users at.
func TestListShowsExperimentsAndScenarios(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d", code)
	}
	for _, want := range []string{"fig2a", "Figure 2a", "snowflake-surge", "Censor scenarios"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

// TestHelpExitsZero: -h is a request, not an error, for both the main
// command and the fuzz subcommand.
func TestHelpExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Errorf("ptperf -h exit = %d, want 0", code)
	}
	if code := run([]string{"fuzz", "-h"}, &out, &errb); code != 0 {
		t.Errorf("ptperf fuzz -h exit = %d, want 0", code)
	}
}

// TestBadSizesRejected covers the -sizes parse error path.
func TestBadSizesRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-sizes", "5,potato"}, &out, &errb); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "bad -sizes") {
		t.Errorf("stderr = %q", errb.String())
	}
}

// TestFuzzSubcommandSmoke runs a two-world torture through the real CLI
// path, plus a single-line replay.
func TestFuzzSubcommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-world test")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"fuzz", "-n", "2", "-seed", "2"}, &out, &errb); code != 0 {
		t.Fatalf("fuzz exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "all invariants hold") {
		t.Errorf("fuzz output missing verdict: %q", out.String())
	}

	out.Reset()
	errb.Reset()
	line := "simtest-v1 root=2 index=0"
	if code := run([]string{"fuzz", "-replay", line}, &out, &errb); code != 0 {
		t.Fatalf("replay exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"fuzz", "-replay", "simtest-nonsense"}, &out, &errb); code != 2 {
		t.Fatalf("bad replay line: exit %d, want 2", code)
	}
}

// obsArgs is a cheap single-cell campaign for the observability CLI
// tests.
func obsArgs(extra ...string) []string {
	args := []string{
		"-exp", "fig4", "-sites", "3", "-repeats", "1", "-sizes", "5",
		"-bytescale", "0.06", "-transports", "tor,obfs4,snowflake",
	}
	return append(args, extra...)
}

// TestObservabilityArtifacts drives -report and -metrics-dir through
// the real CLI path and checks both files land with the expected shape.
func TestObservabilityArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign world")
	}
	dir := t.TempDir()
	report := filepath.Join(dir, "report.html")
	metrics := filepath.Join(dir, "metrics") // must be created by the run
	var out, errb bytes.Buffer
	code := run(obsArgs("-report", report, "-metrics-dir", metrics), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errb.String())
	}
	html, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	for _, want := range []string{"PTPerf campaign report", "<svg", "fig4"} {
		if !strings.Contains(string(html), want) {
			t.Errorf("report lacks %q", want)
		}
	}
	prom, err := os.ReadFile(filepath.Join(metrics, "metrics.prom"))
	if err != nil {
		t.Fatalf("metrics.prom not written: %v", err)
	}
	if !strings.Contains(string(prom), `ptperf_bytes_delivered_total{cell="fig4"}`) {
		t.Errorf("metrics.prom lacks the fig4 counter:\n%s", prom)
	}
}

// TestCacheFlagIncremental reruns the same campaign against one cache
// dir: the second run must answer entirely from cache and print the
// same report.
func TestCacheFlagIncremental(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a campaign world")
	}
	cacheDir := filepath.Join(t.TempDir(), "cache")
	invoke := func() (string, string) {
		var out, errb bytes.Buffer
		if code := run(obsArgs("-cache", "-cache-dir", cacheDir, "-progress"), &out, &errb); code != 0 {
			t.Fatalf("exit %d\nstderr: %s", code, errb.String())
		}
		return out.String(), errb.String()
	}
	out1, err1 := invoke()
	if !strings.Contains(err1, "misses=1") {
		t.Errorf("cold run stderr lacks the miss count: %q", err1)
	}
	out2, err2 := invoke()
	if !strings.Contains(err2, "cache hits=1 misses=0 stores=0") {
		t.Errorf("warm run stderr = %q, want an all-hit summary", err2)
	}
	if !strings.Contains(err2, "cached") {
		t.Errorf("warm run progress stream never flagged the cached cell: %q", err2)
	}
	if out1 != out2 {
		t.Errorf("cached rerun printed a different report:\n--- cold ---\n%s\n--- warm ---\n%s", out1, out2)
	}
}

// TestCacheDirErrorExits covers the -cache-dir failure path: a path
// already occupied by a regular file cannot become a cache directory.
func TestCacheDirErrorExits(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run(obsArgs("-cache", "-cache-dir", file), &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if errb.Len() == 0 {
		t.Error("no error printed for an unusable cache dir")
	}
}
