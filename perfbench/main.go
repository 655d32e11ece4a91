// Command perfbench is the repository's end-to-end benchmark. It runs the
// expanding hash join on the TCP engine (ehjadist's default configuration,
// with the workers as goroutines over loopback) and on the simulator, one
// join at a time on a fresh cluster, checks every result against the
// simulator's reference fingerprint, and reports the medians of the
// end-to-end metrics, or with -trace 1 the per-layer split. See README.md.
//
//	go run . -workload tcp-expand-spill -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Every invocation also writes a results record with its provenance under
// .bench_build/results/ in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	secs := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced joins")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json, generated from the metric tables, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manifest {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(benchmarkManifest()); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	b, err := newBench(w, *seed, 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, rec := measure(b, *secs, *trace == 1)
	printSummary(stderr, rec)
	if err := writeRecord(filepath.Join(".bench_build", "results"), rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the results record of one invocation.
type record struct {
	Provenance provenance         `json:"provenance"`
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      bool               `json:"trace"`
	Seconds    float64            `json:"seconds"`
	Tuples     int64              `json:"tuples"`
	Samples    map[string]int     `json:"samples"`
	Joins      []joinRecord       `json:"untraced_joins"`
	Setups     []float64          `json:"setup_s"`
	Result     result             `json:"result"`
	Failures   []string           `json:"failures,omitempty"`
	Reference  map[string]float64 `json:"reference"`
}

// joinRecord is one untraced join's raw measurements, kept in the results
// record so the noise band behind each median can be inspected.
type joinRecord struct {
	ExecS      float64 `json:"exec_s"`
	CPUS       float64 `json:"cpu_s"`
	PeakHeapMB float64 `json:"peak_heap_mb"`
	StealS     float64 `json:"steal_s"`
}

// measure runs b's workload for secs seconds of closed-loop joins and
// folds them into the result. Traced runs alternate untraced and traced
// joins, so the same run measures the tracing overhead.
func measure(b *bench, secs float64, traced bool) (result, record) {
	// Warm-up: fill caches and finish lazy set-up before timing. It is
	// checked like every other join.
	_, _ = b.join(false)
	cycles := tcpSetupCycles
	if b.w.sim {
		cycles = simSetupCycles
	}
	// Collect the warm-up's garbage first, so the set-up cycles do not pay
	// its sweeping in their allocations.
	runtime.GC()
	for i := 0; i < cycles; i++ {
		// A set-up cycle checks no output; only a failed one counts.
		if err := b.setupOnly(); err != nil {
			b.attempted++
			b.fail(fmt.Errorf("set-up: %w", err))
		}
	}

	minJoins := 3
	if traced {
		minJoins = 4
	}
	var plain, withTrace []joinSample
	start := time.Now()
	for n := 0; n < minJoins || time.Since(start).Seconds() < secs; n++ {
		tr := traced && n%2 == 1
		s, err := b.join(tr)
		switch {
		case err != nil:
		case tr:
			withTrace = append(withTrace, s)
		default:
			plain = append(plain, s)
		}
	}

	m := map[string]float64{}
	tps := func(s joinSample) float64 { return b.tuples / s.runS() }
	switch {
	case !traced && len(plain) > 0:
		m["tuples_per_s"] = median(each(plain, tps))
		m["setup_s"] = median(b.setups)
		m["cpu_s_per_mtuple"] = median(each(plain, func(s joinSample) float64 { return s.cpuS / (b.tuples / 1e6) }))
		m["peak_heap_mb"] = median(each(plain, func(s joinSample) float64 { return s.peakHeapMB }))
	case traced && len(plain) > 0 && len(withTrace) > 0:
		for _, d := range perLayer {
			m[d.Name] = median(each(withTrace, func(s joinSample) float64 { return s.layers[d.Name] }))
		}
		m["trace.overhead_pct"] = 100 * (1 - median(each(withTrace, tps))/median(each(plain, tps)))
	}
	if traced {
		b.attempted++
		if err := replay(b.cfg, b.ref, m); err != nil {
			b.fail(err)
		}
		m["error_rate"] = float64(b.failed) / float64(b.attempted)
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			// Only failed joins leave a metric unmeasured.
			res.Correct = false
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	rec := record{
		Provenance: collectProvenance(),
		Workload:   b.w.name,
		Seed:       b.seed,
		Trace:      traced,
		Seconds:    secs,
		Tuples:     b.cfg.Build.Tuples + b.cfg.Probe.Tuples,
		Samples: map[string]int{"untraced_joins": len(plain), "traced_joins": len(withTrace),
			"setups": len(b.setups)},
		Setups:   b.setups,
		Result:   res,
		Failures: b.failures,
		Reference: map[string]float64{"matches": float64(b.ref.Matches),
			"virtual_s": b.ref.TotalSec, "final_nodes": float64(b.ref.FinalNodes)},
	}
	for _, s := range plain {
		rec.Joins = append(rec.Joins, joinRecord{ExecS: s.execS, CPUS: s.cpuS, PeakHeapMB: s.peakHeapMB, StealS: s.stealS})
	}
	return res, rec
}

func each(ss []joinSample, f func(joinSample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func printSummary(w io.Writer, rec record) {
	p := rec.Provenance
	fmt.Fprintf(w, "perfbench %s seed %d trace %v: %d tuples, %d/%d failed, samples %v\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Tuples, rec.Result.Failed, rec.Result.Attempted, rec.Samples)
	fmt.Fprintf(w, "  host %s, %s, nproc %d, GOMAXPROCS %d, %s, commit %s, %s\n",
		p.Host, p.CPU, p.NumCPU, p.GOMAXPROCS, p.Go, p.Commit, p.Date)
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rec.Result.Metrics[n]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, v.Value, v.Unit)
	}
}

func writeRecord(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if rec.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", rec.Workload, rec.Seed, trace,
		time.Now().UTC().Format("20060102T150405.000000000"))
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
