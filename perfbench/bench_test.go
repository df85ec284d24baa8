package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics asserts that res carries exactly the named metrics, each
// with its unit.
func checkMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < minRequests {
		t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing", m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
}

// tiny shortens a workload's lists so a run of zero seconds stops at
// minRequests.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w, err := makeWorkload(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range w.lists {
		w.lists[i] = l[:min(len(l), minRequests)]
	}
	return w
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("builds loopmapd and runs every workload")
	}
	spec := loadSpec(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "loopmapd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/loopmapd").CombinedOutput(); err != nil {
		t.Fatalf("building loopmapd: %v\n%s", err, out)
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			res, err := runDaemon(tiny(t, wl.Name), bin, filepath.Join(dir, wl.Name), 0, golden)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, spec.EndToEnd)
			res, err = runTraced(tiny(t, wl.Name), filepath.Join(dir, wl.Name+"-traced"), 0, golden)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, spec.PerLayer)
		})
	}
}

func TestSeedFixesTheLists(t *testing.T) {
	for _, name := range []string{"hot", "cold", "durable"} {
		a, _ := makeWorkload(name, 7)
		b, _ := makeWorkload(name, 7)
		c, _ := makeWorkload(name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different workloads", name)
		}
		if reflect.DeepEqual(a.lists, c.lists) {
			t.Errorf("%s: seeds 7 and 8 gave the same lists", name)
		}
	}
}

func TestEveryRequestHasAGoldenDigest(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"hot", "cold", "durable"} {
		w, _ := makeWorkload(name, 1)
		for _, l := range append(append(w.lists, w.prefill...), w.warm) {
			for _, r := range l {
				if _, ok := golden[r.id()]; !ok {
					t.Fatalf("%s: %s has no golden digest", name, r.id())
				}
			}
		}
	}
}

func TestColdKeysAreDistinctBaseKeys(t *testing.T) {
	w, _ := makeWorkload("cold", 1)
	seen := make(map[string]bool)
	for _, r := range w.lists[0] {
		if seen[r.base()] {
			t.Fatalf("base key %s issued twice", r.base())
		}
		seen[r.base()] = true
	}
	if len(seen) < 5000 {
		t.Errorf("%d base keys, want the whole universe (over 5000)", len(seen))
	}
}

func TestDurableFirstTouches(t *testing.T) {
	w, _ := makeWorkload("durable", 1)
	owner := make(map[string]int) // base key -> client
	for c, l := range w.lists {
		touched := make(map[string]bool)
		for _, r := range w.prefill[c] {
			touched[r.id()] = true
		}
		first := 0
		for _, r := range l {
			if o, ok := owner[r.base()]; ok && o != c {
				t.Fatalf("base key %s shared by clients %d and %d", r.base(), o, c)
			}
			owner[r.base()] = c
			switch {
			case r.First && touched[r.id()]:
				t.Fatalf("client %d: first touch of %s, already in the prefill or touched", c, r.id())
			case !r.First && !touched[r.id()]:
				t.Fatalf("client %d: re-touch of %s before its first touch", c, r.id())
			}
			touched[r.id()] = true
			if r.First {
				first++
			}
		}
		if share := float64(first) / float64(len(l)); share < 0.15 || share > 0.25 {
			t.Errorf("client %d: first-touch share %.3f, want about %.2f", c, share, durableFirstShare)
		}
	}
}
