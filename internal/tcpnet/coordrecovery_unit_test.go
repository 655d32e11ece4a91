package tcpnet

// Unit-level crash-recovery tests: redial jitter bounds and spread, and
// chaos against the resume listener's re-attach handshake — stalled,
// corrupt, and torn hellos must be shed without wedging the coordinator,
// a digest mismatch must land on rung 2, and a correct extended hello
// must still resume on rung 1 afterwards.

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	rt "ehjoin/internal/runtime"
	wire "ehjoin/internal/wire"
)

func TestCoordRecoveryRedialJitter(t *testing.T) {
	const base = 200 * time.Millisecond
	rng := rand.New(rand.NewSource(1))
	if d := redialDelay(0, 0, rng); d != 0 {
		t.Errorf("redialDelay with base 0 = %v, want 0", d)
	}
	if d := redialDelay(3, base, nil); d != 0 {
		t.Errorf("redialDelay with nil rng = %v, want 0", d)
	}
	for i := 0; i < 1000; i++ {
		if d := redialDelay(0, base, rng); d < 0 || d > base/2 {
			t.Fatalf("first-attempt delay %v outside [0, %v]", d, base/2)
		}
		if d := redialDelay(1+i%5, base, rng); d < base/2 || d > base/2+base {
			t.Fatalf("retry delay %v outside [%v, %v]", d, base/2, base/2+base)
		}
	}

	// The point of the jitter is that a fleet of workers orphaned by the
	// same crash does not stampede the restarted listener in one instant:
	// independently seeded sources must spread their first redial across
	// the window, not cluster on a handful of instants.
	const fleet = 64
	distinct := make(map[time.Duration]bool, fleet)
	lo, hi := base, time.Duration(0)
	for seed := int64(0); seed < fleet; seed++ {
		d := redialDelay(0, base, rand.New(rand.NewSource(seed)))
		distinct[d] = true
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if len(distinct) < fleet/2 {
		t.Errorf("%d distinct first-attempt delays across %d workers: jitter is correlated", len(distinct), fleet)
	}
	if hi-lo < base/8 {
		t.Errorf("first-attempt delays span only %v of a %v half-window", hi-lo, base/2)
	}
}

// chaosHello opens a raw connection to the resume listener and feeds it
// bytes that must never survive the handshake: garbage, a torn frame
// prefix, or nothing at all. Returns the connection for cleanup.
func chaosHello(t *testing.T, dial func() (net.Conn, error), payload []byte) net.Conn {
	t.Helper()
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) > 0 {
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	return conn
}

// TestCoordRecoveryHandshakeChaos throws malformed re-attach attempts at
// the resume listener — a stalled connection that never speaks, pure
// garbage, and a torn frameCoordResume prefix — then proves the listener
// still serves: a correct extended hello resumes the session on rung 1,
// no reassignment, no death.
func TestCoordRecoveryHandshakeChaos(t *testing.T) {
	l, server, client, dial := resumePair(t, nil)
	if err := advertise(client); err != nil {
		t.Fatal(err)
	}

	deaths := make(chan error, 8)
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, []net.Conn{server},
		WithResume(l, 10*time.Second),
		WithDrainTimeout(30*time.Second),
		WithFailureHandler(func(worker int, nodes []rt.NodeID, cause error) {
			deaths <- cause
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 3
	for i := 0; i < n; i++ {
		c.Inject(1, &testMsg{Seq: i})
	}
	drained := make(chan error, 1)
	go func() { drained <- c.Drain() }()

	// Scripted worker: consume the assignment and the three messages,
	// remember the session identity, then die mid-run.
	r := newWireReader(client)
	var session uint64
	var epoch uint32
	for seen := 0; seen < n; {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == frameAssign {
			session, epoch = f.Session, f.Epoch
		}
		if f.Kind == frameMsg {
			seen++
		}
		putFrame(f)
	}
	_ = client.Close()

	// Chaos at the listener. None of these reach applyResume: the stalled
	// connection parks against the handshake read deadline, the other two
	// fail frame decoding and are dropped on the spot.
	stalled := chaosHello(t, dial, nil)
	defer stalled.Close()
	garbage := chaosHello(t, dial, []byte("this is not a frame and never will be"))
	defer garbage.Close()
	hello := &frame{Kind: frameCoordResume, Session: session, Epoch: epoch,
		LastSeq: n, AckedSeq: 0, CanReplay: true,
		Digest: assignDigest(session, epoch, []int32{1})}
	raw, err := appendFrame(nil, hello, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	torn := chaosHello(t, dial, raw[:len(raw)/2])
	_ = torn.Close() // tear it: half a hello, then FIN

	// The real re-attach: same bytes, whole frame. Must come back as
	// frameResumeOK (rung 1) with nothing to retransmit — the hello
	// already acknowledged everything the coordinator ever sent.
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	rr := newWireReader(conn)
	f, err := rr.ReadFrame()
	if err != nil {
		t.Fatalf("reading the resume answer: %v", err)
	}
	if f.Kind != frameResumeOK {
		t.Fatalf("correct hello answered with frame kind %d, want frameResumeOK", f.Kind)
	}
	putFrame(f)

	// Settle quiescence: report the three deliveries processed.
	rep, err := appendFrame(nil, &frame{Kind: frameReport, Processed: n}, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(rep); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain across the chaos: %v", err)
	}

	stats := c.TransportStats()
	if stats.Resumes != 1 || stats.FullReassigns != 0 {
		t.Errorf("resumes %d, full reassigns %d; want 1 and 0", stats.Resumes, stats.FullReassigns)
	}
	select {
	case cause := <-deaths:
		t.Errorf("failure handler ran (%v): handshake chaos must not cost a recovery rung", cause)
	default:
	}
}

// TestCoordRecoveryDigestMismatch sends an extended hello whose digest
// does not match the coordinator's view of the session. The cross-check
// must refuse rung 1 and fall through to the rung-2 reassignment: a fresh
// assignment under a bumped epoch, with the failure handler told to purge
// and re-stream.
func TestCoordRecoveryDigestMismatch(t *testing.T) {
	l, server, client, dial := resumePair(t, nil)
	if err := advertise(client); err != nil {
		t.Fatal(err)
	}

	deaths := make(chan error, 8)
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, []net.Conn{server},
		WithResume(l, 10*time.Second),
		WithDrainTimeout(30*time.Second),
		WithFailureHandler(func(worker int, nodes []rt.NodeID, cause error) {
			deaths <- cause
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 3
	for i := 0; i < n; i++ {
		c.Inject(1, &testMsg{Seq: i})
	}
	drained := make(chan error, 1)
	go func() { drained <- c.Drain() }()

	r := newWireReader(client)
	var session uint64
	var epoch uint32
	for seen := 0; seen < n; {
		f, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == frameAssign {
			session, epoch = f.Session, f.Epoch
		}
		if f.Kind == frameMsg {
			seen++
		}
		putFrame(f)
	}
	_ = client.Close()

	hello := &frame{Kind: frameCoordResume, Session: session, Epoch: epoch,
		LastSeq: n, AckedSeq: 0, CanReplay: true,
		Digest: assignDigest(session, epoch, []int32{1}) ^ 1}
	raw, err := appendFrame(nil, hello, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	rr := newWireReader(conn)
	f, err := rr.ReadFrame()
	if err != nil {
		t.Fatalf("reading the reassignment: %v", err)
	}
	if f.Kind != frameAssign {
		t.Fatalf("mismatched digest answered with frame kind %d, want a fresh frameAssign", f.Kind)
	}
	if f.Epoch != epoch+1 {
		t.Errorf("reassignment carries epoch %d, want %d (bumped)", f.Epoch, epoch+1)
	}
	putFrame(f)

	if err := <-drained; err != nil {
		t.Fatalf("Drain across the reassignment: %v", err)
	}
	select {
	case cause := <-deaths:
		if !strings.Contains(cause.Error(), "not resumable") {
			t.Errorf("failure cause %q does not name the resume refusal", cause)
		}
	default:
		t.Fatal("failure handler never ran: the join layer would not re-stream the lost state")
	}
	stats := c.TransportStats()
	if stats.Resumes != 0 || stats.FullReassigns != 1 {
		t.Errorf("resumes %d, full reassigns %d; want 0 and 1", stats.Resumes, stats.FullReassigns)
	}
}

// TestRootInjectsSurviveInterleavedReports pins the replay's count of a
// phase's root injections. Drain absorbs the inbox after every local
// delivery, so a worker report can be applied — and logged as a mark —
// between the dequeues of two root injections. The mark is not an
// injection: replay must count both roots, or the resumed run re-injects
// the second and its effect lands twice (a source streaming its whole
// relation again).
func TestRootInjectsSurviveInterleavedReports(t *testing.T) {
	l, server, client, _ := resumePair(t, nil)
	if err := advertise(client); err != nil {
		t.Fatal(err)
	}
	var wal bytes.Buffer
	// Records: 1 header, 2 first root, 3 the report's mark, 4 second root.
	c, err := NewCoordinator(nil, map[rt.NodeID]int{1: 0}, []net.Conn{server},
		WithResume(l, 10*time.Second),
		WithCheckpoint(&wal),
		WithCrashPoint(-1, 4),
		WithDrainTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Register(50, &countActor{n: new(int64)})
	c.Register(51, &countActor{n: new(int64)})

	// Scripted worker: take the assignment, then report.
	f, err := newWireReader(client).ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	putFrame(f)
	rep, err := appendFrame(nil, &frame{Kind: frameReport}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(rep); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(c.inbox) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the report never reached the coordinator's inbox")
		}
		time.Sleep(time.Millisecond)
	}

	c.Inject(50, &testMsg{Seq: 1})
	c.Inject(51, &testMsg{Seq: 2})
	if err := c.Drain(); !errors.Is(err, ErrCoordKilled) {
		t.Fatalf("Drain = %v, want ErrCoordKilled", err)
	}
	c.Close()

	snap, err := ReadSnapshot(bytes.NewReader(wal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []wire.CkptKind
	for _, rec := range snap.Records {
		kinds = append(kinds, rec.Kind)
	}
	want := []wire.CkptKind{wire.CkptHeader, wire.CkptDelivery, wire.CkptMark, wire.CkptDelivery}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("log kinds %v, want %v: the scenario did not interleave the report", kinds, want)
	}

	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := RestoreCoordinator(snap, map[rt.NodeID]rt.Actor{
		50: &countActor{n: new(int64)}, 51: &countActor{n: new(int64)},
	}, WithResume(l2, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.RootInjects(); got != 2 {
		t.Errorf("RootInjects = %d, want 2: a resumed run would re-inject a root the log already delivered", got)
	}
}
