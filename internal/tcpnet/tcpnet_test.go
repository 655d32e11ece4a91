package tcpnet_test

import (
	"net"
	"sync"
	"testing"

	"ehjoin/internal/core"
	"ehjoin/internal/datagen"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tcpnet"
)

// startWorkers launches n worker loops over real localhost TCP connections
// and returns the coordinator-side conns.
func startWorkers(t testing.TB, n int, factory tcpnet.ActorFactory) ([]net.Conn, *sync.WaitGroup) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	conns := make([]net.Conn, n)
	for i := 0; i < n; i++ {
		wconn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		cconn, err := l.Accept()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = cconn
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			if err := tcpnet.RunWorker(c, factory); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i, wconn)
	}
	return conns, &wg
}

func distConfig(alg core.Algorithm) core.Config {
	return core.Config{
		Algorithm:     alg,
		InitialNodes:  2,
		MaxNodes:      8,
		Sources:       2,
		MemoryBudget:  400 << 10,
		ChunkTuples:   500,
		Build:         datagen.Spec{Dist: datagen.Uniform, Tuples: 20_000, Seed: 900},
		Probe:         datagen.Spec{Dist: datagen.Uniform, Tuples: 20_000, Seed: 901},
		MatchFraction: 1.0,
	}
}

func TestBadAssignmentRejected(t *testing.T) {
	if _, err := tcpnet.NewCoordinator(nil, map[rt.NodeID]int{5: 2}, nil); err == nil {
		t.Error("out-of-range worker index accepted")
	}
}
