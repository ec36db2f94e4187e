package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokeScale shrinks every workload to a few seconds.
var smokeScale = scale{
	records:        50000,
	flows:          2,
	shardRecords:   6000,
	shardEvery:     40 * time.Millisecond,
	phaseShards:    1,
	pollEvery:      5 * time.Millisecond,
	appliesPerFlow: 6,
	readEvery:      time.Millisecond,
	readFor:        100 * time.Millisecond,
	setupReps:      2,
	serveSetupReps: 2,
	layerGets:      50,
}

// A smoke-sized run of every workload, untraced and traced, prints
// every metric of its kind by name with its unit, in the human report
// and in the final result line, and passes its output checks.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			c := &config{
				workload: name,
				seconds:  0.01,
				trace:    traced,
				root:     t.TempDir(),
				scale:    smokeScale,
			}
			c.traceOut = c.root + "/trace.json"
			var out bytes.Buffer
			ok := runWorkload(c, workloads[name], &out, map[string]any{"workload": name})
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if !ok {
				t.Errorf("%s traced=%v failed:\n%s", name, traced, out.String())
				continue
			}
			var res resultOut
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				if _, err := os.Stat(c.traceOut); err != nil {
					t.Errorf("%s: no Chrome trace written: %v", name, err)
				}
			}
			if len(res.Metrics) != len(defs) || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: result %+v", name, traced, res)
			}
			human := strings.Join(lines[:len(lines)-1], "\n")
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
				if !strings.Contains(human, d.name) || !strings.Contains(human, " "+d.unit) {
					t.Errorf("%s traced=%v: report does not print %s with its unit", name, traced, d.name)
				}
			}
		}
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the
// benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	for _, tc := range []struct {
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(tc.declared) != len(tc.defs) {
			t.Errorf("BENCHMARK.json declares %d metrics, benchmark reports %d", len(tc.declared), len(tc.defs))
			continue
		}
		for i, d := range tc.defs {
			if tc.declared[i].Name != d.name || tc.declared[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %+v, benchmark %+v", i, tc.declared[i], d)
			}
		}
	}
}

func TestPairSchedule(t *testing.T) {
	if p := pairSchedule(0, 6, 1)[0]; p != (pair{0, 1}) {
		t.Errorf("seed 0 starts with %v, want the CLI default 0 -> 1", p)
	}
	for seed := int64(0); seed < 40; seed++ {
		s := pairSchedule(seed, 6, 4)
		if len(s) != 24 {
			t.Fatalf("%d pairs", len(s))
		}
		for b := 0; b < 4; b++ {
			trains, tests := map[int]bool{}, map[int]bool{}
			for _, p := range s[6*b : 6*b+6] {
				if p.train == p.test {
					t.Fatalf("seed %d: flow evaluates on its training input: %v", seed, p)
				}
				trains[p.train], tests[p.test] = true, true
			}
			if len(trains) != 6 || len(tests) != 6 {
				t.Errorf("seed %d block %d does not cover every input on both sides: %v", seed, b, s[6*b:6*b+6])
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-drift", "--trace", "2"},
		{"--workload", "serve-drift", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}

// The serve-drift sequence holds at least one whole cycle, and shards
// past the first cycle repeat it from its start.
func TestMakeShardsRepeatsOneCycle(t *testing.T) {
	for _, n := range []int{1, 12, 17} {
		set, err := makeShards(3, n, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		if set.cycle != 12 || len(set.bodies) != max(n, set.cycle) {
			t.Fatalf("n=%d: cycle %d, %d shards", n, set.cycle, len(set.bodies))
		}
		for i := set.cycle; i < len(set.bodies); i++ {
			if !bytes.Equal(set.bodies[i], set.bodies[i-set.cycle]) {
				t.Errorf("n=%d: shard %d differs from shard %d", n, i, i-set.cycle)
			}
		}
	}
}
