package main

import (
	"fmt"
	"io"
	"math"
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
	// A non-finite disk used to kill nobody, and a non-finite obstacle
	// vertex used to leave the field at bootup, both with exit status 0.
	for _, args := range [][]string{
		{"-region", "100", "-kill-disk", "0,0,NaN"},
		{"-region", "100", "-kill-disk", "NaN,0,10"},
		{"-region", "100", "-kill-disk", "0,0,-5"},
		{"-region", "100", "-obstacle", "NaN,0,10,0,10,10"},
		{"-region", "100", "-obstacle", "0,0,10,0,10,Inf"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run %v succeeded, want an error", args)
		}
	}
}

// TestRunRejectsNonFiniteTimes is the regression test for NaN times
// reaching the engine: a NaN traffic rate used to make the run loop
// forever, and a NaN disaster time used to strike at an arbitrary
// point. Both runs must fail instead, as must fault-plan values that
// would scale delays to NaN or infinity (an infinite jitter used to
// hang the run too), and the non-finite sizes that used to run on
// quietly: a NaN region deployed only the big node, a NaN disaster
// radius struck nobody, and NaN or infinite energy values were kept.
func TestRunRejectsNonFiniteTimes(t *testing.T) {
	for _, args := range [][]string{
		{"-region", "300", "-r", "50", "-sweeps", "5", "-packets", "2000", "-traffic-rate", "NaN", "-p2p", "0.3", "-seed", "4", "-q"},
		{"-region", "300", "-disaster", "150,80,90", "-disaster-at", "NaN", "-sweeps", "10", "-q"},
		{"-region", "200", "-r", "50", "-sweeps", "5", "-jitter", "Inf", "-q"},
		{"-region", "200", "-r", "50", "-sweeps", "5", "-blackout-rate", "0.1", "-blackout-sweeps", "NaN", "-q"},
		{"-region", "NaN", "-q"},
		{"-region", "200", "-disaster", "0,0,NaN", "-sweeps", "5", "-q"},
		{"-region", "200", "-sweeps", "5", "-energy", "5", "-energy-send", "NaN,1", "-q"},
		{"-region", "200", "-sweeps", "5", "-energy", "Inf", "-q"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run %v succeeded, want an error", args)
		}
	}
}

func TestParseDisk(t *testing.T) {
	c, r, err := parseDisk("10, -5, 30")
	if err != nil || c.X != 10 || c.Y != -5 || r != 30 {
		t.Errorf("parseDisk = %v %v %v", c, r, err)
	}
	if _, r, err := parseDisk("0,0,Inf"); err != nil || !math.IsInf(r, 1) {
		t.Errorf("parseDisk(0,0,Inf) = %v %v, want an infinite radius", r, err)
	}
	for _, s := range []string{"0,0,NaN", "0,0,-1", "0,0,-Inf", "NaN,0,1", "0,Inf,1", "-Inf,0,1"} {
		if _, _, err := parseDisk(s); err == nil {
			t.Errorf("parseDisk(%q) succeeded, want an error", s)
		}
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

// capture runs gs3sim with args and returns what it wrote to stdout.
func capture(t *testing.T, args []string) string {
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

// TestRunKillDiskUnbounded is the regression test for a kill disk whose
// bucket ring overflowed: an infinite or 1e300 radius used to read one
// grid bucket and kill nobody. Such a disk covers every node but the
// big one.
func TestRunKillDiskUnbounded(t *testing.T) {
	for _, r := range []string{"Inf", "1e300"} {
		out := capture(t, []string{"-region", "100", "-kill-disk", "0,0," + r})
		var nodes, killed int
		for _, line := range strings.Split(out, "\n") {
			fmt.Sscanf(line, "configured %d nodes", &nodes)
			fmt.Sscanf(line, "killed %d nodes", &killed)
		}
		if nodes < 2 || killed != nodes-1 {
			t.Errorf("-kill-disk 0,0,%s killed %d of %d nodes, want all but the big node", r, killed, nodes)
		}
	}
}

// TestRunTrialsDeterministic captures stdout of a serial (-parallel 1)
// and a default-pool -trials run and requires byte-identical reports in
// trial order.
func TestRunTrialsDeterministic(t *testing.T) {
	seq := capture(t, []string{"-region", "250", "-trials", "3", "-seed", "9", "-q", "-parallel", "1"})
	par := capture(t, []string{"-region", "250", "-trials", "3", "-seed", "9", "-q"})
	if seq != par {
		t.Errorf("trial reports differ between -parallel 1 and the default pool:\n--- serial ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "--- trial 2") {
		t.Errorf("missing trial headers:\n%s", seq)
	}
}
