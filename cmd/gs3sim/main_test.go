package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunDefaultScenario(t *testing.T) {
	if err := run([]string{"-region", "300", "-q"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPoisson(t *testing.T) {
	if err := run([]string{"-region", "250", "-lambda", "0.02", "-q"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunKillDiskAndSweeps(t *testing.T) {
	if err := run([]string{"-region", "300", "-kill-disk", "100,50,60", "-sweeps", "10", "-q"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMobileSweeps(t *testing.T) {
	if err := run([]string{"-region", "300", "-sweeps", "5", "-mobile", "-q"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWritesSVG(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.svg")
	if err := run([]string{"-region", "250", "-svg", path, "-q"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Error("output is not SVG")
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-region", "0"}); err == nil {
		t.Error("zero region accepted")
	}
	if err := run([]string{"-kill-disk", "nope"}); err == nil {
		t.Error("bad disk accepted")
	}
	if err := run([]string{"-kill-disk", "1,2"}); err == nil {
		t.Error("two-field disk accepted")
	}
	if err := run([]string{"-notaflag"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestParseDisk(t *testing.T) {
	c, r, err := parseDisk("10, -5, 30")
	if err != nil || c.X != 10 || c.Y != -5 || r != 30 {
		t.Errorf("parseDisk = %v %v %v", c, r, err)
	}
}

func TestRunWritesDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := run([]string{"-region", "250", "-dump", path, "-q"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"bigId\"") {
		t.Error("dump missing expected fields")
	}
}

func TestRunTraceFlag(t *testing.T) {
	if err := run([]string{"-region", "250", "-trace", "20", "-q"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTrialsFanOut(t *testing.T) {
	if err := run([]string{"-region", "250", "-trials", "3", "-q"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTrialsRejectsZero(t *testing.T) {
	if err := run([]string{"-region", "250", "-trials", "0"}); err == nil {
		t.Error("zero trials accepted")
	}
}

// TestRunTrialsDeterministic captures stdout of a serial (-parallel 1)
// and a default-pool -trials run and requires byte-identical reports in
// trial order.
func TestRunTrialsDeterministic(t *testing.T) {
	capture := func(args []string) string {
		t.Helper()
		old := os.Stdout
		rd, wr, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = wr
		runErr := run(args)
		wr.Close()
		os.Stdout = old
		data, err := io.ReadAll(rd)
		if err != nil {
			t.Fatal(err)
		}
		if runErr != nil {
			t.Fatal(runErr)
		}
		return string(data)
	}
	seq := capture([]string{"-region", "250", "-trials", "3", "-seed", "9", "-q", "-parallel", "1"})
	par := capture([]string{"-region", "250", "-trials", "3", "-seed", "9", "-q"})
	if seq != par {
		t.Errorf("trial reports differ between -parallel 1 and the default pool:\n--- serial ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "--- trial 2") {
		t.Errorf("missing trial headers:\n%s", seq)
	}
}
