package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// tinyScale shrinks every workload to a few thousand tuples; budgets
// shrink with it, so the expanding workloads still expand and spill.
const tinyScale = 0.01

// TestWorkloadsEmitEveryMetric runs every workload at a tiny scale, once
// untraced and once traced, and checks that each run is correct, reports
// every metric BENCHMARK.json names, and shows the intended layer split.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := runTiny(t, w, false)
			for _, d := range endToEnd {
				v, ok := plain.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || !(v.Value > 0) {
					t.Errorf("end-to-end %s = %+v (present %v), want a positive value in %s", d.Name, v, ok, d.Unit)
				}
			}
			traced := runTiny(t, w, true)
			for _, d := range perLayer {
				if v, ok := traced.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("per-layer %s = %+v (present %v), want unit %s", d.Name, v, ok, d.Unit)
				}
			}
			layer := func(name string) float64 { return traced.Metrics[name].Value }
			positive := []string{"core.build_s", "core.probe_s", "core.join.build_busy_s",
				"core.join.probe_busy_s", "core.source.busy_s", "core.sched.msgs", "proc.cpu_s",
				"datagen.ns_per_tuple", "hashtable.insert_ns_per_tuple", "hashtable.probe_ns_per_tuple"}
			zero := []string{"error_rate", "tcpnet.relayed_bytes", "tcpnet.crc_failures"}
			switch w.name {
			case "tcp-expand-spill":
				positive = append(positive, "core.sched.memfull_msgs", "core.moved_tuples",
					"core.join.migrate_busy_s", "core.join.spill_busy_s", "core.finish_s", "spill.ns_per_tuple")
			case "tcp-zipf-heavy":
				// The ample budget: nothing expands or spills, and the
				// only migration is the heavy-key clones.
				positive = append(positive, "core.heavy_detect_s", "core.join.migrate_busy_s")
				zero = append(zero, "core.replications", "core.splits", "core.sched.memfull_msgs",
					"core.join.spill_busy_s", "spill.ns_per_tuple")
			case "sim-split-skew":
				positive = append(positive, "virtual_s", "sim.events", "sim.ns_per_event", "core.splits")
				zero = append(zero, "tcpnet.bytes", "tcpnet.write_s")
			}
			if w.sim {
				zero = append(zero, "tcpnet.frames")
			} else {
				positive = append(positive, "tcpnet.bytes", "tcpnet.write_s", "tcpnet.frames")
				zero = append(zero, "virtual_s", "sim.events")
			}
			for _, n := range positive {
				if !(layer(n) > 0) {
					t.Errorf("%s = %v, want > 0", n, layer(n))
				}
			}
			for _, n := range zero {
				if layer(n) != 0 {
					t.Errorf("%s = %v, want 0", n, layer(n))
				}
			}
		})
	}
}

func runTiny(t *testing.T, w workload, traced bool) result {
	t.Helper()
	b, err := newBench(w, 7, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	res, rec := measure(b, 0, traced)
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("traced=%v: correct %v, %d/%d failed: %v", traced, res.Correct, res.Failed, res.Attempted, rec.Failures)
	}
	return res
}

// TestWrongReferenceCounts corrupts the reference fingerprint: every join
// and the replay must then count as failed.
func TestWrongReferenceCounts(t *testing.T) {
	for _, w := range []workload{workloads[0], workloads[len(workloads)-1]} {
		b, err := newBench(w, 7, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		b.ref.Checksum ^= 1
		res, _ := measure(b, 0, true)
		if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
			t.Errorf("%s: correct %v, %d/%d failed; want every run failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		if got := res.Metrics["error_rate"].Value; got != 1 {
			t.Errorf("%s: error_rate %v, want 1", w.name, got)
		}
	}
}

// TestSeedDeterminesInputs: the same seed gives the same inputs (and so
// the same reference fingerprint), another seed other inputs.
func TestSeedDeterminesInputs(t *testing.T) {
	w := workloads[0]
	a, err := newBench(w, 3, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBench(w, 3, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newBench(w, 4, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if a.ref.Checksum != b.ref.Checksum {
		t.Errorf("seed 3 twice: checksums %#x and %#x", a.ref.Checksum, b.ref.Checksum)
	}
	if a.ref.Checksum == c.ref.Checksum {
		t.Errorf("seeds 3 and 4 share checksum %#x", a.ref.Checksum)
	}
}

// TestManifest checks the checked-in BENCHMARK.json against the metric
// tables and the limits its readers enforce.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with -manifest")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(keys))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range got.Workloads {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || w.Why == "" {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	setup := false
	for _, d := range append(append([]metricDef(nil), got.EndToEnd...), got.PerLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] || !unit.MatchString(d.Unit) ||
			(d.Better != "higher" && d.Better != "lower") {
			t.Errorf("metric %+v: bad name, unit or better", d)
		}
		seen[d.Name] = true
	}
	for _, d := range got.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range got.PerLayer {
		if d.Bound != nil {
			t.Errorf("per-layer %s has a bound", d.Name)
		}
	}
	if !setup {
		t.Error("no setup_s end-to-end metric")
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if len(got.EndToEnd) > 16 || len(got.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16/128", len(got.EndToEnd), len(got.PerLayer))
	}
}
