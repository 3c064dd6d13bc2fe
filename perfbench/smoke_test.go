package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// smokeScale keeps every workload's field small enough for a test yet
// large enough that the maintain workload's 2·SR craters fit in it.
const smokeScale = 0.3

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// smokeResult is one parsed run of the benchmark.
type smokeResult struct {
	digest string
	line   struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
}

var digestLine = regexp.MustCompile(`(?m)^digest ([0-9a-f]{16}) `)

func runSmoke(t *testing.T, workload string, seed int, trace int) smokeResult {
	t.Helper()
	var out, errOut bytes.Buffer
	what := fmt.Sprintf("workload %s seed %d trace %d", workload, seed, trace)
	cfg := config{workload: workloadByName(workload), seed: uint64(seed), trace: trace == 1, scale: smokeScale}
	if code := runConfig(cfg, &out, &errOut); code != 0 {
		t.Fatalf("%s: exit %d\nstdout:\n%s\nstderr:\n%s", what, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res smokeResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res.line); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", what, err)
	}
	m := digestLine.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("%s: no digest line in\n%s", what, out.String())
	}
	res.digest = m[1]
	if !res.line.Correct || res.line.Attempted < 1 || res.line.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.line.Correct, res.line.Attempted, res.line.Failed)
	}
	return res
}

// checkMetrics asserts the result carries exactly the declared
// metrics, each with its declared unit.
func checkMetrics(t *testing.T, what string, res smokeResult, decl []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.line.Metrics) != len(decl) {
		t.Errorf("%s: %d metrics printed, %d declared", what, len(res.line.Metrics), len(decl))
	}
	for _, d := range decl {
		got, ok := res.line.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not printed", what, d.Name)
		case got.Unit != d.Unit:
			t.Errorf("%s: metric %s unit %q, declared %q", what, d.Name, got.Unit, d.Unit)
		}
	}
}

// TestDeclarationsMatch checks that BENCHMARK.json declares exactly the
// workloads and metrics the program measures.
func TestDeclarationsMatch(t *testing.T) {
	b := readDecl(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, c := range []struct {
		what string
		decl []struct{ Name, Unit string }
		prog []metricDecl
	}{{"end_to_end", b.EndToEnd, endToEndMetrics}, {"per_layer", b.PerLayer, perLayerMetrics}} {
		if len(c.decl) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program has %d", c.what, len(c.decl), len(c.prog))
			continue
		}
		for i, d := range c.decl {
			if d.Name != c.prog[i].name || d.Unit != c.prog[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", c.what, i, d.Name, d.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

// TestSmoke runs every workload at reduced size: every declared metric
// is printed with its unit in both modes, the correctness gate passes,
// the digest repeats for each of two seeds (and differs between them),
// and tracing leaves the digest unchanged.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readDecl(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			digests := map[int]string{}
			for _, seed := range []int{1, 2} {
				a := runSmoke(t, w.name, seed, 0)
				again := runSmoke(t, w.name, seed, 0)
				checkMetrics(t, w.name+" --trace 0", a, b.EndToEnd)
				if a.digest != again.digest {
					t.Errorf("seed %d: digest %s then %s", seed, a.digest, again.digest)
				}
				digests[seed] = a.digest
			}
			if digests[1] == digests[2] {
				t.Errorf("seeds 1 and 2 share digest %s: inputs do not depend on the seed", digests[1])
			}
			traced := runSmoke(t, w.name, 1, 1)
			checkMetrics(t, w.name+" --trace 1", traced, b.PerLayer)
			if traced.digest != digests[1] {
				t.Errorf("traced digest %s, untraced %s", traced.digest, digests[1])
			}
		})
	}
}

func readDecl(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}
