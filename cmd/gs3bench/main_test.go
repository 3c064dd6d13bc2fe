package main

import (
	"os"
	"strings"
	"testing"
)

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments(10000) {
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		if e.desc == "" {
			t.Errorf("experiment %q has no description", e.id)
		}
	}
	// Every experiment promised by DESIGN.md is present.
	for _, id := range []string{"F7", "F8", "T1", "T2", "T3", "T4", "T5", "S1", "M1", "B1", "B2", "N1"} {
		if !seen[id] {
			t.Errorf("experiment %q missing", id)
		}
	}
}

func TestRunList(t *testing.T) {
	out := captureRun(t, []string{"-list"})
	if !strings.Contains(out, "F7") || !strings.Contains(out, "B2") {
		t.Errorf("list output incomplete:\n%s", out)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out := captureRun(t, []string{"-exp", "F7", "-quick"})
	if !strings.Contains(out, "[F7]") || !strings.Contains(out, "analytic") {
		t.Errorf("F7 output malformed:\n%s", out[:min(200, len(out))])
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := run([]string{"-exp", "ZZZ"}, tmp); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := run([]string{"-nope"}, tmp); err == nil {
		t.Error("bad flag accepted")
	}
}

func captureRun(t *testing.T, args []string) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := run(args, tmp); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestRunScalingExperiment exercises the -nodes flag end to end: N1
// with a small target must print the scaling table.
func TestRunScalingExperiment(t *testing.T) {
	out := captureRun(t, []string{"-exp", "N1", "-quick", "-nodes", "20000"})
	if !strings.Contains(out, "[N1]") || !strings.Contains(out, "broadcastsPerNode") {
		t.Errorf("N1 output malformed:\n%s", out[:min(200, len(out))])
	}
}

// TestRunParallelMatchesSeq is the CLI-level determinism check: the
// same experiment printed under -parallel 1 (strictly serial) and
// under the default GOMAXPROCS pool must be byte-identical on stdout
// (timing goes to stderr only).
func TestRunParallelMatchesSeq(t *testing.T) {
	seq := captureRun(t, []string{"-exp", "T1", "-quick", "-parallel", "1"})
	par := captureRun(t, []string{"-exp", "T1", "-quick"})
	if seq != par {
		t.Errorf("stdout differs between -parallel 1 and the default pool:\n--- serial ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}
