package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"slices"
	"testing"
)

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSelfTest runs every workload for a second, untraced and traced,
// and checks the output contract: every metric BENCHMARK.json names is
// printed with its unit, verification passes with no failed operation,
// and every span's parent exists.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving stack for several seconds")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchFile
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			opt := options{workload: name, seed: 7, seconds: 1, trace: traced, workdir: t.TempDir()}
			inf, res, err := run(opt, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d: %v",
					name, traced, res.Correct, res.Failed, res.Attempted, inf.Failures)
			}
			want := map[string]string{}
			if traced {
				for _, m := range bench.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bench.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for metric, unit := range want {
				got, ok := res.Metrics[metric]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, metric)
				} else if got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", name, traced, metric, got.Unit, unit)
				}
			}
			if traced {
				checkSpansFile(t, inf.SpansFile)
			}
		}
	}
}

func checkSpansFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	for _, name := range spanNames {
		if !slices.ContainsFunc(spans, func(s span) bool { return s.Name == name }) {
			t.Errorf("%s: no %s span", path, name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "tick", ID: 1, Start: 0, End: 100},
		{Name: "stage", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "flush", ID: 3, Parent: 1, Start: 30, End: 90},
	}
	self := selfTimes(spans)
	if self["tick"] != 20 || self["stage"] != 20 || self["flush"] != 60 {
		t.Fatalf("self times %v", self)
	}
	if err := checkSpans(append(spans, span{Name: "orphan", ID: 4, Parent: 9, End: 1})); err == nil {
		t.Fatal("a span with a missing parent passed checkSpans")
	}
}
