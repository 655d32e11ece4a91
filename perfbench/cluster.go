package main

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"ehjoin/internal/core"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/sim"
	"ehjoin/internal/tcpnet"
)

// tcpCluster is one fresh in-process TCP cluster: a coordinator hosting the
// scheduler and the sources, and tcpWorkers goroutine workers hosting the
// join nodes, talking over loopback exactly as ehjadist's spawned worker
// processes do (p2p data plane, session resume, binary wire).
type tcpCluster struct {
	coord *tcpnet.Coordinator
	wg    sync.WaitGroup

	mu   sync.Mutex
	errs []error // worker exits with an error
}

// startTCP sets up a cluster for cfg. A non-nil tracer wraps every join
// actor the workers construct and the connections (see tracer.wrapConn).
func startTCP(cfg core.Config, tr *tracer) (*tcpCluster, error) {
	blob, err := core.EncodeConfig(cfg)
	if err != nil {
		return nil, err
	}
	ids, err := core.JoinNodeIDs(cfg)
	if err != nil {
		return nil, err
	}
	assignment := make(map[rt.NodeID]int, len(ids))
	for i, id := range ids {
		assignment[id] = i % tcpWorkers
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := tr.wrapListener(ln)
	addr := l.Addr().String()
	dial := func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return tr.wrapConn(c), nil
	}
	factory := func(blob []byte, id rt.NodeID) (rt.Actor, error) {
		cfg, err := core.DecodeConfig(blob)
		if err != nil {
			return nil, err
		}
		a, err := core.NewJoinActor(cfg, id)
		if err != nil {
			return nil, err
		}
		return tr.wrapActor(id, a), nil
	}
	opts := []tcpnet.WorkerOption{
		tcpnet.WithWorkerResume(dial, 0, 0),
		tcpnet.WithWorkerP2P("127.0.0.1:0"),
	}
	if tr != nil {
		opts = append(opts, tcpnet.WithWorkerPeerChaos(tr.wrapPeer))
	}

	c := &tcpCluster{}
	conns := make([]net.Conn, 0, tcpWorkers)
	fail := func(err error) (*tcpCluster, error) {
		_ = l.Close()
		for _, conn := range conns {
			_ = conn.Close()
		}
		c.wg.Wait()
		return nil, err
	}
	for i := 0; i < tcpWorkers; i++ {
		wc, err := dial()
		if err != nil {
			return fail(err)
		}
		c.wg.Add(1)
		go func(i int) {
			defer c.wg.Done()
			if err := tcpnet.RunWorker(wc, factory, opts...); err != nil {
				c.mu.Lock()
				c.errs = append(c.errs, fmt.Errorf("worker %d: %w", i, err))
				c.mu.Unlock()
			}
		}(i)
		cc, err := l.Accept()
		if err != nil {
			_ = wc.Close()
			return fail(err)
		}
		conns = append(conns, cc)
	}
	// The coordinator takes over the listener: a worker whose link breaks
	// redials it and resumes its session.
	coord, err := tcpnet.NewCoordinator(blob, assignment, conns,
		tcpnet.WithP2P(), tcpnet.WithResume(l, tcpnet.DefaultResumeWindow))
	if err != nil {
		return fail(err)
	}
	c.coord = coord
	return c, nil
}

// stop shuts the cluster down, waits for every worker goroutine to exit,
// and reports any worker error.
func (c *tcpCluster) stop() error {
	c.coord.Close()
	c.wg.Wait()
	return errors.Join(c.errs...)
}

// tcpEngine is the traced TCP engine. It embeds the coordinator so the
// optional TransportStats hook core.Execute asserts for stays visible.
type tcpEngine struct {
	*tcpnet.Coordinator
	tr *tracer
}

func (e tcpEngine) Register(id rt.NodeID, a rt.Actor) {
	e.Coordinator.Register(id, e.tr.wrapActor(id, a))
}

func (e tcpEngine) Inject(to rt.NodeID, m rt.Message) {
	e.tr.inject(m)
	e.Coordinator.Inject(to, m)
}

func (e tcpEngine) Drain() error { return e.tr.drain(e.Coordinator.Drain) }

// simEngine is the traced simulator. It embeds *sim.Sim so the Stats and
// per-node utilisation hooks core.Execute asserts for stay visible.
type simEngine struct {
	*sim.Sim
	tr *tracer
}

func (e simEngine) Register(id rt.NodeID, a rt.Actor) {
	e.Sim.Register(id, e.tr.wrapActor(id, a))
}

func (e simEngine) Inject(to rt.NodeID, m rt.Message) {
	e.tr.inject(m)
	e.Sim.Inject(to, m)
}

func (e simEngine) Drain() error { return e.tr.drain(e.Sim.Drain) }
