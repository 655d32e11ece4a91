package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric. Bound is set only for end-to-end
// metrics: the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd is what a user of the join sees, from untraced joins.
var endToEnd = []metricDef{
	{"tuples_per_s", "tuples/s", "higher", bound(0.25)},
	{"setup_s", "s", "lower", bound(0.25)},
	{"cpu_s_per_mtuple", "s/Mtuple", "lower", bound(0.25)},
	{"peak_heap_mb", "MB", "lower", bound(0.2)},
}

// perLayer is the traced split, named by the module each layer lives in.
// README.md maps each to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.reshuffle_s", Unit: "s", Better: "lower"},
	{Name: "core.heavy_detect_s", Unit: "s", Better: "lower"},
	{Name: "core.probe_s", Unit: "s", Better: "lower"},
	{Name: "core.finish_s", Unit: "s", Better: "lower"},
	{Name: "core.final_nodes", Unit: "count", Better: "lower"},
	{Name: "core.splits", Unit: "count", Better: "lower"},
	{Name: "core.replications", Unit: "count", Better: "lower"},
	{Name: "core.moved_tuples", Unit: "count", Better: "lower"},
	{Name: "core.extra_build_chunks", Unit: "chunks", Better: "lower"},
	{Name: "core.probe_extra_chunks", Unit: "chunks", Better: "lower"},
	{Name: "core.load_max_mean", Unit: "ratio", Better: "lower"},
	{Name: "core.probe_load_max_mean", Unit: "ratio", Better: "lower"},
	{Name: "core.source.busy_s", Unit: "s", Better: "lower"},
	{Name: "core.join.build_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.join.probe_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.join.migrate_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.join.spill_busy_s", Unit: "s", Better: "lower"},
	{Name: "core.join.busy_max_mean", Unit: "ratio", Better: "lower"},
	{Name: "core.sched.busy_s", Unit: "s", Better: "lower"},
	{Name: "core.sched.msgs", Unit: "count", Better: "lower"},
	{Name: "core.sched.memfull_msgs", Unit: "count", Better: "lower"},
	{Name: "core.sched.nack_ratio", Unit: "ratio", Better: "lower"},
	{Name: "tcpnet.write_s", Unit: "s", Better: "lower"},
	{Name: "tcpnet.writes", Unit: "count", Better: "lower"},
	{Name: "tcpnet.read_s", Unit: "s", Better: "lower"},
	{Name: "tcpnet.bytes", Unit: "B", Better: "lower"},
	{Name: "tcpnet.bytes_per_tuple", Unit: "B/tuple", Better: "lower"},
	{Name: "tcpnet.frames", Unit: "count", Better: "lower"},
	{Name: "tcpnet.retransmitted_frames", Unit: "count", Better: "lower"},
	{Name: "tcpnet.crc_failures", Unit: "count", Better: "lower"},
	{Name: "tcpnet.dup_frames", Unit: "count", Better: "lower"},
	{Name: "tcpnet.relayed_bytes", Unit: "B", Better: "lower"},
	{Name: "datagen.ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "hashfn.route_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "tuple.encode_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "tuple.decode_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "hashtable.insert_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "hashtable.probe_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "hashtable.extract_ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "hashtable.alloc_bytes_per_tuple", Unit: "B/tuple", Better: "lower"},
	{Name: "spill.ns_per_tuple", Unit: "ns/tuple", Better: "lower"},
	{Name: "virtual_s", Unit: "s", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.wire_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.gc_cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.unattributed_cpu_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "error_rate", Unit: "ratio", Better: "lower"},
}

// runSeconds is how long each benchmark run measures.
const runSeconds = 38

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest is BENCHMARK.json, field order as checked in.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []metricDef        `json:"end_to_end"`
	PerLayer   []metricDef        `json:"per_layer"`
}

func benchmarkManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.name, Why: w.why})
	}
	return m
}

// provenance identifies where and on what a result was measured.
type provenance struct {
	Host       string `json:"host"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	Date       string `json:"date"`
}

func collectProvenance() provenance {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown"
	}
	return provenance{
		Host:       host,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commit(),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out revision when the working directory is a git
// checkout; benchmark checkouts exported without history have none.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown (not a git checkout)"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
