package tcpnet_test

// Differential suite: every algorithm and feature combination runs across
// TCP workers, and the join result must stay bit-identical to the
// simulator AND no worker→worker traffic may relay through the
// coordinator (RelayedMessages == 0) — the direct peer links carry it all.

import (
	"testing"

	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tcpnet"
)

// runJoin executes cfg across `workers` workers and returns the report;
// the result fingerprint and relayed-traffic assertions are the caller's.
func runJoin(t *testing.T, cfg core.Config, workers int) *core.Report {
	t.Helper()
	blob, err := core.EncodeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := core.JoinNodeIDs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conns, wg := startWorkers(t, workers, joinFactory)
	assignment := make(map[rt.NodeID]int)
	for i, id := range ids {
		assignment[id] = i % workers
	}
	coord, err := tcpnet.NewCoordinator(blob, assignment, conns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Execute(cfg, coord)
	coord.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// assertNoRelay pins the data plane's reason to exist: no worker→worker
// message may relay through the coordinator.
func assertNoRelay(t *testing.T, r *core.Report) {
	t.Helper()
	if r.RelayedMessages != 0 || r.RelayedBytes != 0 {
		t.Errorf("run relayed %d msgs (%d bytes) through the coordinator, want 0",
			r.RelayedMessages, r.RelayedBytes)
	}
}

// The differential tests run in two layouts: the TestDistributed* names
// host the join nodes on two workers, joined by a single peer link; the
// TestP2P* names on three, a full mesh of three links.

// TestDistributedJoinMatchesSimulator runs every algorithm with the join
// nodes spread over two workers and compares the result with the
// simulator's.
func TestDistributedJoinMatchesSimulator(t *testing.T) { joinMatchesSimulator(t, 2) }

// TestP2PJoinMatchesSimulator is the three-worker layout of the same run.
func TestP2PJoinMatchesSimulator(t *testing.T) { joinMatchesSimulator(t, 3) }

func joinMatchesSimulator(t *testing.T, workers int) {
	for _, alg := range core.Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := distConfig(alg)
			want, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := runJoin(t, cfg, workers)
			if got.Matches != want.Matches || got.Checksum != want.Checksum {
				t.Errorf("result %d/%#x, want %d/%#x",
					got.Matches, got.Checksum, want.Matches, want.Checksum)
			}
			assertNoRelay(t, got)
		})
	}
}

// TestDistributedSkewed exercises replication chains and reshuffling — the
// heaviest worker↔worker flows — over the one peer link of two workers.
func TestDistributedSkewed(t *testing.T) { skewedMatchesSimulator(t, 2) }

// TestP2PSkewed is the three-worker layout of the same run.
func TestP2PSkewed(t *testing.T) { skewedMatchesSimulator(t, 3) }

func skewedMatchesSimulator(t *testing.T, workers int) {
	cfg := distConfig(core.Hybrid)
	cfg.Build = datagen.Spec{Dist: datagen.Gaussian, Mean: 0.5, Sigma: 0.0001, Tuples: 20_000, Seed: 910}
	cfg.Probe = datagen.Spec{Dist: datagen.Gaussian, Mean: 0.5, Sigma: 0.0001, Tuples: 20_000, Seed: 911}
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := runJoin(t, cfg, workers)
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Errorf("skewed result %d/%#x, want %d/%#x",
			got.Matches, got.Checksum, want.Matches, want.Checksum)
	}
	assertNoRelay(t, got)
}

// TestDistributedSpill crosses the spillOrder/spillAck control handshake
// (on the coordinator links) with chunk migration on the peer link of two
// workers.
func TestDistributedSpill(t *testing.T) { spillMatchesSimulator(t, 2) }

// TestP2PSpill is the three-worker layout of the same run.
func TestP2PSpill(t *testing.T) { spillMatchesSimulator(t, 3) }

func spillMatchesSimulator(t *testing.T, workers int) {
	for _, alg := range []core.Algorithm{core.Split, core.Replication, core.Hybrid} {
		t.Run(alg.String(), func(t *testing.T) {
			cfg := distConfig(alg)
			cfg.MaxNodes = 3
			cfg.SpillEnabled = true
			want, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.SpilledPartitions == 0 {
				t.Fatal("scenario did not engage the spill rung")
			}
			got := runJoin(t, cfg, workers)
			if got.Matches != want.Matches || got.Checksum != want.Checksum {
				t.Errorf("spill result %d/%#x, want %d/%#x",
					got.Matches, got.Checksum, want.Matches, want.Checksum)
			}
			if got.SpilledPartitions == 0 || got.ExhaustedResources {
				t.Errorf("spill state wrong: partitions=%d exhausted=%v",
					got.SpilledPartitions, got.ExhaustedResources)
			}
			assertNoRelay(t, got)
		})
	}
}

// TestP2PPartialAssignment mixes worker-hosted and coordinator-local join
// nodes: worker↔worker traffic must take the peer links while
// worker↔local traffic keeps using the coordinator link (which is direct
// delivery, not relaying). The one-worker case has no peer links at all.
func TestP2PPartialAssignment(t *testing.T) {
	cfg := distConfig(core.Split)
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := core.EncodeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := core.JoinNodeIDs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		workers int
		localOf int // every localOf-th join node stays coordinator-local
	}{
		{"1-worker", 1, 2},
		{"2-workers", 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conns, wg := startWorkers(t, tc.workers, joinFactory)
			assignment := make(map[rt.NodeID]int)
			for i, id := range ids {
				if i%tc.localOf != tc.localOf-1 {
					assignment[id] = i % tc.workers
				}
			}
			coord, err := tcpnet.NewCoordinator(blob, assignment, conns)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Execute(cfg, coord)
			coord.Close()
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if got.Matches != want.Matches || got.Checksum != want.Checksum {
				t.Errorf("partial-assignment result %d/%#x, want %d/%#x",
					got.Matches, got.Checksum, want.Matches, want.Checksum)
			}
			assertNoRelay(t, got)
		})
	}
}

// TestDistributedMultiWayPipeline hosts a three-way join pipeline on two
// workers: the stage-to-stage chunk handoff is pure worker↔worker traffic,
// the flow the data plane accelerates most.
func TestDistributedMultiWayPipeline(t *testing.T) { multiWayPipeline(t, 2) }

// TestP2PMultiWayPipeline is the three-worker layout of the same pipeline.
func TestP2PMultiWayPipeline(t *testing.T) { multiWayPipeline(t, 3) }

func multiWayPipeline(t *testing.T, workers int) {
	mc := core.MultiConfig{
		Algorithm:    core.Hybrid,
		InitialNodes: 2,
		MaxNodes:     6,
		Sources:      2,
		MemoryBudget: 300 << 10,
		ChunkTuples:  500,
		Relations: []core.StageRelation{
			{Spec: datagen.Spec{Dist: datagen.Uniform, Tuples: 15_000, Seed: 801}},
			{Spec: datagen.Spec{Dist: datagen.Uniform, Tuples: 15_000, Seed: 802}, MatchFraction: 0.9},
			{Spec: datagen.Spec{Dist: datagen.Uniform, Tuples: 15_000, Seed: 803}, MatchFraction: 0.9},
		},
	}
	want, err := core.RunMulti(mc)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := core.EncodeMultiConfig(mc)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := core.MultiJoinNodeIDs(mc)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(b []byte, id rt.NodeID) (rt.Actor, error) {
		m, err := core.DecodeMultiConfig(b)
		if err != nil {
			return nil, err
		}
		return core.NewMultiJoinActor(m, id)
	}
	conns, wg := startWorkers(t, workers, factory)
	assignment := make(map[rt.NodeID]int)
	for i, id := range ids {
		assignment[id] = i % workers
	}
	coord, err := tcpnet.NewCoordinator(blob, assignment, conns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.ExecuteMulti(mc, coord)
	ts := coord.TransportStats()
	coord.Close()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Matches != want.Matches || got.Checksum != want.Checksum {
		t.Errorf("pipeline %d/%#x, want %d/%#x",
			got.Matches, got.Checksum, want.Matches, want.Checksum)
	}
	// MultiReport carries no transport stats; assert on the coordinator
	// directly — stage handoffs are pure worker↔worker traffic, so any
	// relaying here means the data plane was bypassed.
	if ts.RelayedMessages != 0 || ts.RelayedBytes != 0 {
		t.Errorf("pipeline relayed %d msgs (%d bytes) through the coordinator, want 0",
			ts.RelayedMessages, ts.RelayedBytes)
	}
}

// TestP2PWorkerDeathRecovers kills one of three workers mid-build: the
// coordinator must tombstone the dead peer on both surviving workers
// (framePeerDown), the failure handler feeds the deaths to the scheduler,
// and the re-stream recovery must still produce the exact fault-free
// result over the remaining peer link.
func TestP2PWorkerDeathRecovers(t *testing.T) {
	workerDeathRecovers(t, 3, 1)
}
