package main

import (
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"ehjoin/internal/core"
	"ehjoin/internal/metrics"
	rt "ehjoin/internal/runtime"
	"ehjoin/internal/tuple"
)

// tracer collects the per-layer split of one traced join from outside the
// program: it wraps actors (timing each Receive by message kind), the
// dialled end of every connection (timing each Read and Write), and the
// engine (timing each Drain by phase). A nil *tracer wraps nothing, which
// is how untraced joins run.
type tracer struct {
	sched   rt.NodeID
	sources int

	mu     sync.Mutex
	actors []*tracedActor

	// next and phases are touched only by the goroutine driving
	// core.Execute.
	next   string
	phases map[string]float64 // Drain seconds by phase

	writeNs, writes, readNs, bytes atomic.Int64
}

func newTracer(cfg core.Config) (*tracer, error) {
	sched, err := core.SchedulerNodeID(cfg)
	if err != nil {
		return nil, err
	}
	return &tracer{sched: sched, sources: cfg.Sources, phases: map[string]float64{}}, nil
}

type role uint8

const (
	roleSched role = iota
	roleSource
	roleJoin
)

func (t *tracer) wrapActor(id rt.NodeID, a rt.Actor) rt.Actor {
	if t == nil {
		return a
	}
	// Node ids run scheduler, sources, join nodes (core.Config.IDStride).
	r := roleJoin
	switch {
	case id == t.sched:
		r = roleSched
	case id <= t.sched+rt.NodeID(t.sources):
		r = roleSource
	}
	ta := &tracedActor{Actor: a, role: r, busy: map[string]int64{}, msgs: map[string]int64{}}
	t.mu.Lock()
	t.actors = append(t.actors, ta)
	t.mu.Unlock()
	return ta
}

// Connection wrappers. Both ends of every coordinator link are wrapped,
// so socket time covers the data the coordinator-hosted sources send and
// the acks and reports coming back; peer links are wrapped at the
// dialling end only (the hook tcpnet offers). tcpnet.bytes counts every
// byte once: written bytes on coordinator links, written and read bytes
// on the dialled end of a peer link.

func (t *tracer) wrapConn(c net.Conn) net.Conn {
	if t == nil {
		return c
	}
	return tracedConn{Conn: c, t: t}
}

func (t *tracer) wrapPeer(c net.Conn) net.Conn {
	return tracedConn{Conn: c, t: t, countReads: true}
}

func (t *tracer) wrapListener(l net.Listener) net.Listener {
	if t == nil {
		return l
	}
	return tracedListener{Listener: l, t: t}
}

type tracedListener struct {
	net.Listener
	t *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrapConn(c), nil
}

// inject notes the phase the next Drain runs. core.Execute injects one
// root message into the scheduler before each phase's Drain; that message
// names the phase.
func (t *tracer) inject(m rt.Message) {
	if ph, ok := phaseOf[msgKind(m)]; ok {
		t.next = ph
	}
}

// drain times one Drain call under the phase it completes.
func (t *tracer) drain(f func() error) error {
	start := time.Now()
	err := f()
	t.phases[t.next] += time.Since(start).Seconds()
	return err
}

// phaseOf maps the message core.Execute injects before a Drain to the
// phase that Drain runs.
var phaseOf = map[string]string{
	"startBuild":   "build",
	"doReshuffle":  "reshuffle",
	"detectHeavy":  "heavy_detect",
	"startProbe":   "probe",
	"finishOOC":    "finish",
	"collectStats": "stats",
}

// tracedActor times Receive by message kind. Engines deliver one message
// at a time per actor, so its maps need no lock; they are read only after
// the cluster has stopped.
type tracedActor struct {
	rt.Actor
	role role
	busy map[string]int64 // ns per message kind
	msgs map[string]int64
}

func (a *tracedActor) Receive(env rt.Env, from rt.NodeID, m rt.Message) {
	k := msgKind(m)
	start := time.Now()
	a.Actor.Receive(env, from, m)
	a.busy[k] += time.Since(start).Nanoseconds()
	a.msgs[k]++
}

func (a *tracedActor) total() int64 {
	var ns int64
	for _, v := range a.busy {
		ns += v
	}
	return ns
}

// msgKind names a protocol message by its Go type. Data chunks also carry
// their relation ("dataChunk/R", "dataChunk/S"), which splits build from
// probe work.
func msgKind(m rt.Message) string {
	v := reflect.ValueOf(m)
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	name := v.Type().Name()
	if v.Kind() != reflect.Struct || name != "dataChunk" {
		return name
	}
	if f := v.FieldByName("Chunk"); f.IsValid() && f.CanInterface() {
		if c, ok := f.Interface().(*tuple.Chunk); ok && c != nil {
			return name + "/" + c.Rel.String()
		}
	}
	return name
}

// tracedConn times the socket calls of one connection end.
type tracedConn struct {
	net.Conn
	t          *tracer
	countReads bool
}

func (c tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.t.writeNs.Add(time.Since(start).Nanoseconds())
	c.t.writes.Add(1)
	c.t.bytes.Add(int64(n))
	return n, err
}

func (c tracedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.t.readNs.Add(time.Since(start).Nanoseconds())
	if c.countReads {
		c.t.bytes.Add(int64(n))
	}
	return n, err
}

// Join-node message kinds folded into each per-layer busy metric.
var (
	migrateKinds = []string{"moveTuples", "reshuffleAssign", "heavyClone"}
	spillKinds   = []string{"spillOrder", "finishOOC"}
)

// actorLayers folds the wrapped actors into the core.* actor metrics.
// Call it only after every actor has stopped receiving.
func (t *tracer) actorLayers(out map[string]float64) (busyNs int64) {
	var srcNs, schedNs, schedMsgs, memFull, nacks int64
	var build, probe, migrate, spillNs int64
	var nodeBusy []int64
	for _, a := range t.actors {
		busyNs += a.total()
		switch a.role {
		case roleSched:
			schedNs += a.total()
			for _, n := range a.msgs {
				schedMsgs += n
			}
			memFull += a.msgs["memFull"]
		case roleSource:
			srcNs += a.total()
		case roleJoin:
			build += a.busy["dataChunk/R"]
			probe += a.busy["dataChunk/S"]
			migrate += sumKinds(a.busy, migrateKinds)
			spillNs += sumKinds(a.busy, spillKinds)
			nacks += a.msgs["memFullNack"]
			// Only nodes that held data share the join's work.
			if a.msgs["dataChunk/R"]+a.msgs["dataChunk/S"] > 0 {
				nodeBusy = append(nodeBusy, a.total())
			}
		}
	}
	out["core.source.busy_s"] = seconds(srcNs)
	out["core.join.build_busy_s"] = seconds(build)
	out["core.join.probe_busy_s"] = seconds(probe)
	out["core.join.migrate_busy_s"] = seconds(migrate)
	out["core.join.spill_busy_s"] = seconds(spillNs)
	out["core.join.busy_max_mean"] = metrics.MaxMeanRatio(nodeBusy)
	out["core.sched.busy_s"] = seconds(schedNs)
	out["core.sched.msgs"] = float64(schedMsgs)
	out["core.sched.memfull_msgs"] = float64(memFull)
	out["core.sched.nack_ratio"] = ratio(float64(nacks), float64(memFull))
	return busyNs
}

func sumKinds(m map[string]int64, kinds []string) int64 {
	var s int64
	for _, k := range kinds {
		s += m[k]
	}
	return s
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
