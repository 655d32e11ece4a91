package main

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	metricsx "ehjoin/internal/metrics"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/sim"
)

// Set-up cycles per run on top of each join's own set-up, so setup_s is a
// median over enough samples to be steady.
const (
	tcpSetupCycles = 40
	simSetupCycles = 2000
)

// bench runs one workload at one seed: closed-loop joins, one at a time,
// each on a fresh cluster, each checked against the reference fingerprint.
type bench struct {
	w      workload
	seed   uint64
	cfg    core.Config
	ref    *core.Report
	tuples float64

	attempted, failed int
	failures          []string
	setups            []float64
}

// joinSample is what one join measured.
type joinSample struct {
	execS, cpuS, peakHeapMB, stealS float64
	layers                          map[string]float64 // traced joins only
}

// runS is the join's wall time less the CPU time the hypervisor stole
// from the machine meanwhile. On a shared virtual machine a neighbour's
// burst can take a fifth of the CPUs for minutes and slow every join of a
// run alike. The join is one pipeline across all the CPUs, so each stolen
// CPU-second stalls it. The correction is capped at half the wall time,
// and it is 0 on a dedicated machine.
func (s joinSample) runS() float64 {
	return s.execS - min(s.stealS, s.execS/2)
}

func newBench(w workload, seed uint64, scale float64) (*bench, error) {
	cfg := w.config(seed, scale)
	// The reference: the simulator on the identical configuration, the
	// repository's established oracle. Computed outside any timed region.
	ref, err := core.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return &bench{w: w, seed: seed, cfg: cfg, ref: ref,
		tuples: float64(cfg.Build.Tuples + cfg.Probe.Tuples)}, nil
}

func (b *bench) fail(err error) {
	b.failed++
	if len(b.failures) < 5 {
		b.failures = append(b.failures, err.Error())
	}
}

// check compares a run's result with the reference. On the simulator the
// run must be bit-identical: the same virtual time and the same expansion
// event sequence.
func (b *bench) check(rep *core.Report) error {
	if rep.Matches != b.ref.Matches || rep.Checksum != b.ref.Checksum {
		return fmt.Errorf("result %d matches (checksum %#x), reference %d (%#x)",
			rep.Matches, rep.Checksum, b.ref.Matches, b.ref.Checksum)
	}
	if b.w.sim {
		if rep.TotalSec != b.ref.TotalSec {
			return fmt.Errorf("virtual time %v, reference %v", rep.TotalSec, b.ref.TotalSec)
		}
		if !reflect.DeepEqual(rep.Events, b.ref.Events) {
			return fmt.Errorf("expansion event sequence differs from the reference (%d vs %d events)",
				len(rep.Events), len(b.ref.Events))
		}
	}
	return nil
}

// setupOnly builds a cluster (or simulator engine and generators) and
// tears it down again, recording the set-up time.
func (b *bench) setupOnly() error {
	if b.w.sim {
		start := time.Now()
		if _, err := newSimSetup(b.cfg); err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(start).Seconds())
		return nil
	}
	start := time.Now()
	cl, err := startTCP(b.cfg, nil)
	if err != nil {
		return err
	}
	b.setups = append(b.setups, time.Since(start).Seconds())
	return cl.stop()
}

// newSimSetup constructs what a simulator run needs before Execute: the
// engine and the relation generators.
func newSimSetup(cfg core.Config) (*sim.Sim, error) {
	s := sim.New(cfg.Cost)
	build, err := datagen.New(cfg.Build)
	if err != nil {
		return nil, err
	}
	if _, err := datagen.NewProbe(cfg.Probe, build, cfg.MatchFraction); err != nil {
		return nil, err
	}
	return s, nil
}

// join runs one join and checks it. A traced join also returns the
// per-layer split.
func (b *bench) join(traced bool) (joinSample, error) {
	b.attempted++
	s, err := b.runJoin(traced)
	if err != nil {
		b.fail(err)
	}
	return s, err
}

func (b *bench) runJoin(traced bool) (joinSample, error) {
	var tr *tracer
	if traced {
		var err error
		if tr, err = newTracer(b.cfg); err != nil {
			return joinSample{}, err
		}
	}
	// Start every join from a collected heap so peak_heap_mb and the GC
	// counters see this join alone.
	runtime.GC()

	start := time.Now()
	var eng rt.Engine
	var cl *tcpCluster
	var simEng *sim.Sim
	if b.w.sim {
		var err error
		if simEng, err = newSimSetup(b.cfg); err != nil {
			return joinSample{}, err
		}
		eng = simEng
		if tr != nil {
			eng = simEngine{Sim: simEng, tr: tr}
		}
	} else {
		var err error
		if cl, err = startTCP(b.cfg, tr); err != nil {
			return joinSample{}, err
		}
		eng = cl.coord
		if tr != nil {
			eng = tcpEngine{Coordinator: cl.coord, tr: tr}
		}
	}
	b.setups = append(b.setups, time.Since(start).Seconds())

	p0 := readProc()
	heap := startHeapSampler()
	start = time.Now()
	rep, err := core.Execute(b.cfg, eng)
	execS := time.Since(start).Seconds()
	peak := heap.end()
	p1 := readProc()

	var ts rt.TransportStats
	if cl != nil {
		ts = cl.coord.TransportStats()
		err = errors.Join(err, cl.stop())
	}
	if err != nil {
		return joinSample{}, err
	}
	if err := b.check(rep); err != nil {
		return joinSample{}, err
	}

	s := joinSample{
		execS:      execS,
		cpuS:       p1.cpuS - p0.cpuS,
		stealS:     p1.stealS - p0.stealS,
		peakHeapMB: float64(peak) / 1e6,
	}
	if tr == nil {
		return s, nil
	}
	l := map[string]float64{}
	for _, ph := range []string{"build", "reshuffle", "heavy_detect", "probe", "finish"} {
		l["core."+ph+"_s"] = tr.phases[ph]
	}
	l["core.final_nodes"] = float64(rep.FinalNodes)
	l["core.splits"] = float64(rep.Splits)
	l["core.replications"] = float64(rep.Replications)
	l["core.moved_tuples"] = float64(rep.SplitMovedTuples + rep.ReshuffleTuples)
	l["core.extra_build_chunks"] = rep.ExtraBuildChunks
	l["core.probe_extra_chunks"] = rep.ProbeExtraChunks
	l["core.load_max_mean"] = metricsx.MaxMeanRatio(rep.NodeLoads)
	l["core.probe_load_max_mean"] = metricsx.MaxMeanRatio(rep.NodeProbeLoads)
	busyNs := tr.actorLayers(l)

	l["tcpnet.write_s"] = seconds(tr.writeNs.Load())
	l["tcpnet.writes"] = float64(tr.writes.Load())
	l["tcpnet.read_s"] = seconds(tr.readNs.Load())
	l["tcpnet.bytes"] = float64(tr.bytes.Load())
	l["tcpnet.bytes_per_tuple"] = float64(tr.bytes.Load()) / b.tuples
	l["tcpnet.frames"] = float64(ts.FramesSent)
	l["tcpnet.retransmitted_frames"] = float64(ts.RetransmittedFrames)
	l["tcpnet.crc_failures"] = float64(ts.ChecksumFailures)
	l["tcpnet.dup_frames"] = float64(ts.DuplicateFrames)
	l["tcpnet.relayed_bytes"] = float64(ts.RelayedBytes)

	l["virtual_s"], l["sim.events"], l["sim.ns_per_event"], l["sim.wire_mb"] = 0, 0, 0, 0
	if simEng != nil {
		events := float64(simEng.Stats().Events)
		l["virtual_s"] = rep.TotalSec
		l["sim.events"] = events
		l["sim.ns_per_event"] = execS * 1e9 / events
		l["sim.wire_mb"] = float64(rep.WireBytes) / 1e6
	}

	l["proc.cpu_s"] = s.cpuS
	l["proc.gc_cpu_s"] = p1.gcCPUS - p0.gcCPUS
	l["proc.alloc_mb"] = float64(p1.allocBytes-p0.allocBytes) / 1e6
	l["proc.gc_cycles"] = float64(p1.gcCycles - p0.gcCycles)
	// What the wrappers cannot see: framing, CRC32C, the wire envelope
	// and scheduling. Socket reads are left in, as their time includes
	// idle waiting for the peer.
	l["proc.unattributed_cpu_s"] = s.cpuS - seconds(busyNs) - seconds(tr.writeNs.Load())
	s.layers = l
	return s, nil
}

// procStat is a snapshot of the process's CPU and allocation counters.
type procStat struct {
	cpuS, gcCPUS         float64
	allocBytes, gcCycles uint64
	stealS               float64 // host-wide CPU time stolen by the hypervisor
}

func readProc() procStat {
	var ru syscall.Rusage
	// Getrusage fails only for an invalid who or buffer, neither possible here.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return procStat{
		stealS:     stealSeconds(),
		cpuS:       tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		gcCPUS:     s[0].Value.Float64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
	}
}

// stealSeconds reads the steal column of /proc/stat's cpu line: time the
// hypervisor ran something else while this machine's CPUs wanted to run.
// It is 0 where the kernel does not report it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / clockTicks
}

// clockTicks is Linux's USER_HZ, the unit of /proc/stat.
const clockTicks = 100

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// heapSampler polls the live heap while a join runs and keeps the peak.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

// heapMetric is the heap the last GC cycle marked live. Its peak is what
// the join needs held at once, without the garbage whose amount depends on
// when collections happened to run.
const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.peak <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler, waits for it to exit, and returns the peak.
func (h *heapSampler) end() uint64 {
	close(h.stop)
	return <-h.peak
}
