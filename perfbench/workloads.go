package main

import (
	"fmt"

	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
)

// workload is one input set the benchmark runs. config builds the join's
// configuration from the workload seed; scale multiplies the relation
// cardinalities and memory budgets together, so a scaled-down workload
// keeps its expansion behaviour (1 in every measured run; the self-test
// runs a tiny scale).
type workload struct {
	name   string
	why    string
	sim    bool // runs on the simulator instead of the TCP engine
	config func(seed uint64, scale float64) core.Config
}

// TCP engine shape: the ehjadist defaults (p2p data plane and session
// resume are set where the cluster is built, see cluster.go).
const (
	tcpWorkers      = 2
	tcpInitialNodes = 2
	tcpMaxNodes     = 8
	tcpSources      = 2
	tcpChunkTuples  = 1000
)

// ampleBudget is a per-node logical budget no workload's build relation
// can fill, so nothing expands.
const ampleBudget = 1 << 40

var workloads = []workload{
	{
		name: "tcp-expand-spill",
		why:  "Undersized budget, 2 of 4 nodes initially, spill rung on: memFull protocol, replication, reshuffle migration, ExtractRange and spill run beside insert/probe.",
		config: func(seed uint64, scale float64) core.Config {
			cfg := tcpConfig(seed, scaled(500_000, scale), datagen.Uniform)
			cfg.MaxNodes = 4
			// The build relation is 50 MB logical at scale 1; four
			// nodes hold 32 MB of it, the rest spills.
			cfg.MemoryBudget = int64(8 << 20 * scale)
			cfg.SpillEnabled = true
			return cfg
		},
	},
	{
		name: "tcp-zipf-heavy",
		why:  "Zipf 1.5 build, correlated probe, heavy-hitter routing: ~1e9 matches enumerated while little crosses the wire, so probe chain walks and heavy routing dominate.",
		config: func(seed uint64, scale float64) core.Config {
			cfg := tcpConfig(seed, scaled(40_000, scale), datagen.Zipf)
			cfg.Probe.Dist = datagen.Correlated
			cfg.MemoryBudget = ampleBudget
			cfg.HeavyThreshold = 0.01
			return cfg
		},
	},
	{
		name: "sim-split-skew",
		why:  "The paper's virtual-time path: split algorithm on the simulator (OSUMed cost model), Gaussian-skewed build expanding 2 to 16 nodes; no sockets or codec.",
		sim:  true,
		config: func(seed uint64, scale float64) core.Config {
			n := scaled(1_000_000, scale)
			return core.Config{
				Algorithm:     core.Split,
				InitialNodes:  2,
				MaxNodes:      16,
				Sources:       8,
				ChunkTuples:   tuple.DefaultChunkTuples,
				MemoryBudget:  int64(8 << 20 * scale),
				Cost:          rt.OSUMed(),
				Build:         relation(datagen.Gaussian, n, 2*seed+1),
				Probe:         relation(datagen.Gaussian, n, 2*seed+2),
				MatchFraction: 1,
			}
		},
	},
}

// tcpConfig is ehjadist's default join (hybrid, 2 of 8 nodes, 2 sources,
// 1000-tuple chunks, one core per node) over n+n tuples of dist.
func tcpConfig(seed uint64, n int64, dist datagen.Dist) core.Config {
	return core.Config{
		Algorithm:     core.Hybrid,
		InitialNodes:  tcpInitialNodes,
		MaxNodes:      tcpMaxNodes,
		Sources:       tcpSources,
		ChunkTuples:   tcpChunkTuples,
		Cores:         1,
		Cost:          rt.OSUMed(),
		Build:         relation(dist, n, 2*seed+1),
		Probe:         relation(dist, n, 2*seed+2),
		MatchFraction: 1,
	}
}

// relation is a generated relation of n tuples (Gaussian mean 0.5, sigma
// 0.01; Zipf exponent 1.5, ehjadist's default).
func relation(dist datagen.Dist, n int64, seed uint64) datagen.Spec {
	return datagen.Spec{Dist: dist, Mean: 0.5, Sigma: 0.01, ZipfS: 1.5, Tuples: n, Seed: seed}
}

func scaled(n int64, scale float64) int64 {
	if s := int64(float64(n) * scale); s > 0 {
		return s
	}
	return 1
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
