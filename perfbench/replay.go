package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	"ehjoin/internal/hashfn"
	"ehjoin/internal/hashtable"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/spill"
	"ehjoin/internal/tuple"
)

// replaySink keeps the replayed routing results live so the compiler
// cannot drop the calls being timed.
var replaySink int64

// replay feeds the workload's own generated inputs single-threaded through
// each layer's public functions, outside the join, and reports ns/tuple
// per layer. The table and spill replays are whole single-node joins, so
// their fingerprints must equal the reference's.
func replay(cfg core.Config, ref *core.Report, out map[string]float64) error {
	build, err := datagen.New(cfg.Build)
	if err != nil {
		return err
	}
	probe, err := datagen.NewProbe(cfg.Probe, build, cfg.MatchFraction)
	if err != nil {
		return err
	}
	r := make([]tuple.Tuple, cfg.Build.Tuples)
	s := make([]tuple.Tuple, cfg.Probe.Tuples)
	n := float64(len(r) + len(s))

	start := time.Now()
	for i := range r {
		r[i] = build.At(int64(i))
	}
	for i := range s {
		s[i] = probe.At(int64(i))
	}
	out["datagen.ns_per_tuple"] = nsPer(start, n)

	space := hashfn.DefaultSpace()
	owners := make([]int32, cfg.InitialNodes)
	ids, err := core.JoinNodeIDs(cfg)
	if err != nil {
		return err
	}
	for i := range owners {
		owners[i] = int32(ids[i])
	}
	routes, err := hashfn.NewTable(space, owners)
	if err != nil {
		return err
	}
	var sink int64
	start = time.Now()
	for _, t := range r {
		sink += int64(routes.BuildOwnerOf(space.PositionOf(t.Key)))
	}
	for _, t := range s {
		sink += int64(len(routes.ProbeOwnersOf(space.PositionOf(t.Key))))
	}
	out["hashfn.route_ns_per_tuple"] = nsPer(start, n)
	replaySink = sink

	if cfg.ChunkTuples <= 0 {
		return fmt.Errorf("replay: workload sets no chunk size")
	}
	layoutR, layoutS := tuple.DefaultLayout(), tuple.DefaultLayout()
	var chunks []*tuple.Chunk
	size := 0
	for _, rel := range []struct {
		tuples []tuple.Tuple
		rel    tuple.Relation
		layout tuple.Layout
	}{{r, tuple.RelR, layoutR}, {s, tuple.RelS, layoutS}} {
		for lo := 0; lo < len(rel.tuples); lo += cfg.ChunkTuples {
			hi := min(lo+cfg.ChunkTuples, len(rel.tuples))
			c := &tuple.Chunk{Rel: rel.rel, Tuples: rel.tuples[lo:hi], Layout: rel.layout}
			chunks = append(chunks, c)
			size += c.BinarySize()
		}
	}
	buf := make([]byte, 0, size)
	start = time.Now()
	for _, c := range chunks {
		buf = c.AppendBinary(buf)
	}
	out["tuple.encode_ns_per_tuple"] = nsPer(start, n)
	decoded := 0
	start = time.Now()
	for off := 0; off < len(buf); {
		c, used, err := tuple.DecodeBinary(buf[off:])
		if err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		decoded += len(c.Tuples)
		off += used
	}
	out["tuple.decode_ns_per_tuple"] = nsPer(start, n)
	if decoded != len(r)+len(s) {
		return fmt.Errorf("replay decode: %d tuples, want %d", decoded, len(r)+len(s))
	}

	table := hashtable.New(space, layoutR)
	alloc0 := allocBytes()
	start = time.Now()
	for _, t := range r {
		table.Insert(t)
	}
	out["hashtable.insert_ns_per_tuple"] = nsPer(start, float64(len(r)))
	out["hashtable.alloc_bytes_per_tuple"] = float64(allocBytes()-alloc0) / float64(len(r))
	var matches, checksum uint64
	start = time.Now()
	for _, p := range s {
		matches += uint64(table.Probe(p.Key, func(b tuple.Tuple) {
			checksum ^= spill.MixPair(b.Index, p.Index)
		}))
	}
	out["hashtable.probe_ns_per_tuple"] = nsPer(start, float64(len(s)))
	if err := sameFingerprint("hashtable replay", matches, checksum, ref); err != nil {
		return err
	}
	// Migrate the whole table in two split-sized halves.
	lower, upper := hashfn.Range{Lo: 0, Hi: space.Positions()}.Halves()
	start = time.Now()
	moved := len(table.ExtractRange(upper)) + len(table.ExtractRange(lower))
	out["hashtable.extract_ns_per_tuple"] = nsPer(start, float64(len(r)))
	if moved != len(r) {
		return fmt.Errorf("hashtable replay: extracted %d of %d tuples", moved, len(r))
	}

	out["spill.ns_per_tuple"] = 0
	if cfg.SpillEnabled {
		// One node joins everything under the workload's per-node budget,
		// evicting partitions as the spill rung does (hybrid-hash policy).
		m := spill.NewWithPolicy(space, layoutR, layoutS, cfg.MemoryBudget,
			spillPartitions, rt.OSUMed(), spill.HybridHash)
		var env nullEnv
		start = time.Now()
		for _, t := range r {
			m.InsertBuild(env, t)
		}
		for _, t := range s {
			m.Probe(env, t)
		}
		m.Finish(env)
		out["spill.ns_per_tuple"] = nsPer(start, n)
		if err := sameFingerprint("spill replay", m.Matches(), m.Checksum(), ref); err != nil {
			return err
		}
	}
	return nil
}

// spillPartitions is core.Config's default spill fan-out.
const spillPartitions = 32

func sameFingerprint(what string, matches, checksum uint64, ref *core.Report) error {
	if matches != ref.Matches || checksum != ref.Checksum {
		return fmt.Errorf("%s: %d matches (checksum %#x), reference %d (%#x)",
			what, matches, checksum, ref.Matches, ref.Checksum)
	}
	return nil
}

func nsPer(start time.Time, n float64) float64 {
	return float64(time.Since(start).Nanoseconds()) / n
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// nullEnv is the spill replay's environment: no clock, no peers, and the
// simulator-only cost charges ignored, as on the live engines.
type nullEnv struct{}

func (nullEnv) Now() int64                 { return 0 }
func (nullEnv) Send(rt.NodeID, rt.Message) {}
func (nullEnv) ChargeCPU(int64)            {}
func (nullEnv) ChargeDisk(int64, bool)     {}
