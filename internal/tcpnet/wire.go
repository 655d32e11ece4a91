package tcpnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	wire "ehjoin/internal/wire"
)

// Wire format. Every frame is length-prefixed and carries a session
// envelope:
//
//	[4-byte little-endian body length][crc32c(4) of the length][body]
//	body = [crc32c(4)][seq(8)][ack(8)][kind(1)][kind-specific fields]
//
// The length has its own CRC32C (Castagnoli), checked before the body is
// read: a corrupted length must fail at once, not leave the reader waiting
// for a body of the wrong size that may never arrive (peer links have no
// heartbeat to end that wait). The body CRC32C covers everything after
// itself — seq, ack, kind, fields. A flipped bit anywhere in a frame is
// thus detected before the frame is acted on, and surfaces as
// wire.ErrChecksum instead of a clean close. seq is the per-session
// sequence number for reliable frames (0 for control frames); ack is the
// sender's cumulative receive position, piggybacked on every frame in both
// directions (see session.go). frameMsg payloads are encoded by
// internal/wire: hand-written binary codecs for the hot chunk-bearing
// messages, gob for the rare control messages.
//
// Both directions are buffered. The flush discipline is what keeps the
// coordinator's quiescence predicate sound on a buffered transport: a
// writer flushes exactly at its blocking points (the writer goroutine when
// its outbox runs dry, the worker loop when its inbox runs dry), and
// buffering preserves per-connection FIFO order, so a worker's report
// still follows every message it emitted before it.

const (
	// maxFrameBytes bounds a single frame body; a corrupt length prefix
	// fails fast instead of attempting a huge allocation.
	maxFrameBytes = 1 << 30
	// writeBufBytes/readBufBytes size the per-connection buffers; large
	// enough to batch many control frames and a data chunk per syscall.
	writeBufBytes = 256 << 10
	readBufBytes  = 256 << 10

	// frameHeaderLen is the body length plus its checksum.
	frameHeaderLen = 4 + 4
	// envelopeLen is the session envelope inside the body: crc + seq + ack.
	envelopeLen = 4 + 8 + 8
	// minBodyLen is the envelope plus the kind byte.
	minBodyLen = envelopeLen + 1
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64
// and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// framePool recycles frame structs between the read loops, the drain
// loop, and the writer goroutines.
var framePool = sync.Pool{New: func() any { return new(frame) }}

func getFrame() *frame { return framePool.Get().(*frame) }

// putFrame zeroes and recycles f. References f held to (message, config
// blob) stay valid — only the frame struct itself is reused.
func putFrame(f *frame) {
	*f = frame{}
	framePool.Put(f)
}

// appendFrame appends one complete frame — length prefix and its CRC32C,
// body CRC32C, sequence number, cumulative ack, kind byte, fields — to dst.
func appendFrame(dst []byte, f *frame, seq, ack uint64) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length and its crc, patched below
	dst = append(dst, 0, 0, 0, 0)             // body crc, patched below
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint64(dst, ack)
	dst = append(dst, byte(f.Kind))
	var err error
	switch f.Kind {
	case frameAssign:
		dst = binary.LittleEndian.AppendUint64(dst, f.Session)
		dst = binary.LittleEndian.AppendUint32(dst, f.Epoch)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.CfgBlob)))
		dst = append(dst, f.CfgBlob...)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.IDs)))
		for _, id := range f.IDs {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
		}
		// Data plane: worker index, address book, peer epochs, and the
		// full node→worker map.
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.Worker))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Peers)))
		for _, p := range f.Peers {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(p)))
			dst = append(dst, p...)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Epochs)))
		for _, e := range f.Epochs {
			dst = binary.LittleEndian.AppendUint32(dst, e)
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.MapIDs)))
		for i, id := range f.MapIDs {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(f.MapWorkers[i]))
		}
	case frameMsg:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.From))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.To))
		if dst, err = wire.AppendMessage(dst, f.Msg); err != nil {
			return nil, err
		}
	case frameReport:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Processed))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Emitted))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.WFrames))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.WResumes))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.WRetrans))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.WChecksum))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.WDups))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(f.WDropped))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.PeerEmitted)))
		for _, v := range f.PeerEmitted {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
		for _, v := range f.PeerProcessed {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
	case frameResume:
		dst = binary.LittleEndian.AppendUint64(dst, f.Session)
		dst = binary.LittleEndian.AppendUint32(dst, f.Epoch)
		dst = binary.LittleEndian.AppendUint64(dst, f.LastSeq)
		var replay byte
		if f.CanReplay {
			replay = 1
		}
		dst = append(dst, replay)
	case frameCoordResume:
		dst = binary.LittleEndian.AppendUint64(dst, f.Session)
		dst = binary.LittleEndian.AppendUint32(dst, f.Epoch)
		dst = binary.LittleEndian.AppendUint64(dst, f.LastSeq)
		dst = binary.LittleEndian.AppendUint64(dst, f.AckedSeq)
		dst = binary.LittleEndian.AppendUint64(dst, f.Digest)
		var replay byte
		if f.CanReplay {
			replay = 1
		}
		dst = append(dst, replay)
	case frameResumeOK:
		dst = binary.LittleEndian.AppendUint64(dst, f.LastSeq)
	case framePeerAddr:
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(f.Addr)))
		dst = append(dst, f.Addr...)
	case framePeerHello:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.From))
		dst = binary.LittleEndian.AppendUint64(dst, f.Session)
		dst = binary.LittleEndian.AppendUint32(dst, f.Epoch)
		dst = binary.LittleEndian.AppendUint64(dst, f.LastSeq)
		var replay byte
		if f.CanReplay {
			replay = 1
		}
		dst = append(dst, replay)
	case framePeerHelloOK:
		dst = binary.LittleEndian.AppendUint64(dst, f.LastSeq)
	case framePeerEpoch:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.From))
		dst = binary.LittleEndian.AppendUint32(dst, f.Epoch)
	case framePeerDown:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.From))
	case framePing, framePong, frameShutdown, frameAck:
		// envelope and kind byte only
	default:
		return nil, fmt.Errorf("tcpnet: encode unknown frame kind %d: %w", f.Kind, wire.ErrUnknownKind)
	}
	body := dst[start+frameHeaderLen:]
	if len(body) > maxFrameBytes {
		return nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", len(body))
	}
	hdr := dst[start : start+frameHeaderLen]
	binary.LittleEndian.PutUint32(hdr, uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(hdr[:4], crcTable))
	binary.LittleEndian.PutUint32(body, crc32.Checksum(body[4:], crcTable))
	return dst, nil
}

// frameLen validates a frame header and returns its body length. The
// length's checksum is verified before the length is trusted, so a
// corrupted prefix fails here as wire.ErrChecksum.
func frameLen(hdr []byte) (int, error) {
	if want, got := binary.LittleEndian.Uint32(hdr[4:]), crc32.Checksum(hdr[:4], crcTable); got != want {
		return 0, fmt.Errorf("tcpnet: frame length crc %#x, header says %#x: %w", got, want, wire.ErrChecksum)
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n < minBodyLen || n > maxFrameBytes {
		return 0, fmt.Errorf("tcpnet: frame length %d outside [%d, %d]: %w",
			n, minBodyLen, maxFrameBytes, wire.ErrBadLength)
	}
	return n, nil
}

// wireWriter encodes frames onto a buffered connection. Not safe for
// concurrent use: each connection direction has exactly one owner.
//
// A writer with a session attached keeps accepting reliable frames after
// the connection has failed: WriteFrame still sequences and buffers them
// in the session (they will be replayed on resume) and returns nil, with
// the transport error held in Err for the owner to act on at its next
// blocking point. A sessionless writer (handshakes, redials) returns
// transport errors directly.
type wireWriter struct {
	bw      *bufio.Writer
	sess    *session
	scratch []byte // reused encode buffer for the sessionless path
	err     error  // first transport error, sticky
}

func newWireWriter(w io.Writer) *wireWriter {
	return &wireWriter{bw: bufio.NewWriterSize(w, writeBufBytes)}
}

func newSessionWriter(w io.Writer, s *session) *wireWriter {
	return &wireWriter{bw: bufio.NewWriterSize(w, writeBufBytes), sess: s}
}

// WriteFrame encodes and buffers one frame. Encoding failures (unknown
// kind, codec errors) are always returned; transport failures follow the
// session/sessionless contract above.
func (w *wireWriter) WriteFrame(f *frame) error {
	var data []byte
	var err error
	if w.sess != nil {
		data, err = w.sess.encode(f)
	} else {
		w.scratch, err = appendFrame(w.scratch[:0], f, 0, 0)
		data = w.scratch
	}
	if err != nil {
		return err
	}
	if w.err != nil {
		if w.sess != nil {
			return nil
		}
		return w.err
	}
	if _, werr := w.bw.Write(data); werr != nil {
		w.err = werr
		if w.sess != nil {
			return nil
		}
		return werr
	}
	return nil
}

// WriteRaw buffers pre-encoded frame bytes — the retransmission path.
func (w *wireWriter) WriteRaw(data []byte) error {
	if w.err != nil {
		return w.err
	}
	if _, err := w.bw.Write(data); err != nil {
		w.err = err
	}
	return w.err
}

// Flush pushes everything buffered onto the connection.
func (w *wireWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
	}
	return w.err
}

// Err returns the first transport error this writer hit, if any.
func (w *wireWriter) Err() error { return w.err }

// wireReader decodes frames from a buffered connection.
type wireReader struct {
	br  *bufio.Reader
	buf []byte // reused body buffer; decoded frames must not alias it
}

func newWireReader(r io.Reader) *wireReader {
	return &wireReader{br: bufio.NewReaderSize(r, readBufBytes)}
}

// Buffered reports how many received-but-unparsed bytes are waiting. The
// worker uses it to coalesce counter reports: while more input is already
// buffered it keeps processing, and reports only when about to block.
func (r *wireReader) Buffered() int { return r.br.Buffered() }

// ReadFrame blocks for the next frame. The frame comes from framePool;
// hand it back with putFrame once its fields have been consumed.
//
// A clean peer close at a frame boundary returns bare io.EOF. Anything
// else — a stream ending mid-frame, an illegal length prefix, a failed
// CRC on the length or the body — returns an error matching one of the
// wire package's typed decode errors, so callers can tell corruption from
// shutdown.
func (r *wireReader) ReadFrame() (*frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("tcpnet: stream ended mid-header (%v): %w", err, wire.ErrTruncated)
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return nil, err
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	body := r.buf[:n]
	if _, err := io.ReadFull(r.br, body); err != nil {
		return nil, fmt.Errorf("tcpnet: frame body truncated (%v): %w", err, wire.ErrTruncated)
	}
	if want, got := binary.LittleEndian.Uint32(body), crc32.Checksum(body[4:], crcTable); got != want {
		return nil, fmt.Errorf("tcpnet: frame crc %#x, header says %#x: %w", got, want, wire.ErrChecksum)
	}
	f := getFrame()
	f.Seq = binary.LittleEndian.Uint64(body[4:])
	f.Ack = binary.LittleEndian.Uint64(body[12:])
	f.Kind = frameKind(body[20])
	body = body[minBodyLen:]
	bad := func() (*frame, error) {
		kind := f.Kind
		putFrame(f)
		return nil, fmt.Errorf("tcpnet: short body for frame kind %d: %w", kind, wire.ErrTruncated)
	}
	switch f.Kind {
	case frameAssign:
		if len(body) < 16 {
			return bad()
		}
		f.Session = binary.LittleEndian.Uint64(body)
		f.Epoch = binary.LittleEndian.Uint32(body[8:])
		bl := int(binary.LittleEndian.Uint32(body[12:]))
		body = body[16:]
		if bl < 0 || len(body) < bl+4 {
			return bad()
		}
		if bl > 0 {
			f.CfgBlob = append([]byte(nil), body[:bl]...) // body is reused; copy
		}
		body = body[bl:]
		cnt := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if cnt < 0 || len(body) < 4*cnt {
			return bad()
		}
		f.IDs = make([]int32, cnt)
		for i := range f.IDs {
			f.IDs[i] = int32(binary.LittleEndian.Uint32(body[4*i:]))
		}
		body = body[4*cnt:]
		if len(body) < 8 {
			return bad()
		}
		f.Worker = int32(binary.LittleEndian.Uint32(body))
		np := int(binary.LittleEndian.Uint32(body[4:]))
		body = body[8:]
		if np < 0 || np > maxFrameBytes/2 {
			return bad()
		}
		if np > 0 {
			f.Peers = make([]string, np)
			for i := range f.Peers {
				if len(body) < 2 {
					return bad()
				}
				al := int(binary.LittleEndian.Uint16(body))
				body = body[2:]
				if len(body) < al {
					return bad()
				}
				f.Peers[i] = string(body[:al])
				body = body[al:]
			}
		}
		if len(body) < 4 {
			return bad()
		}
		ne := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if ne < 0 || len(body) < 4*ne {
			return bad()
		}
		if ne > 0 {
			f.Epochs = make([]uint32, ne)
			for i := range f.Epochs {
				f.Epochs[i] = binary.LittleEndian.Uint32(body[4*i:])
			}
		}
		body = body[4*ne:]
		if len(body) < 4 {
			return bad()
		}
		nm := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if nm < 0 || len(body) < 8*nm {
			return bad()
		}
		if nm > 0 {
			f.MapIDs = make([]int32, nm)
			f.MapWorkers = make([]int32, nm)
			for i := 0; i < nm; i++ {
				f.MapIDs[i] = int32(binary.LittleEndian.Uint32(body[8*i:]))
				f.MapWorkers[i] = int32(binary.LittleEndian.Uint32(body[8*i+4:]))
			}
		}
	case frameMsg:
		if len(body) < 8 {
			return bad()
		}
		f.From = int32(binary.LittleEndian.Uint32(body))
		f.To = int32(binary.LittleEndian.Uint32(body[4:]))
		m, err := wire.DecodeMessage(body[8:])
		if err != nil {
			putFrame(f)
			return nil, err
		}
		f.Msg = m
	case frameReport:
		if len(body) < 68 {
			return bad()
		}
		f.Processed = int64(binary.LittleEndian.Uint64(body))
		f.Emitted = int64(binary.LittleEndian.Uint64(body[8:]))
		f.WFrames = int64(binary.LittleEndian.Uint64(body[16:]))
		f.WResumes = int64(binary.LittleEndian.Uint64(body[24:]))
		f.WRetrans = int64(binary.LittleEndian.Uint64(body[32:]))
		f.WChecksum = int64(binary.LittleEndian.Uint64(body[40:]))
		f.WDups = int64(binary.LittleEndian.Uint64(body[48:]))
		f.WDropped = int64(binary.LittleEndian.Uint64(body[56:]))
		nw := int(binary.LittleEndian.Uint32(body[64:]))
		body = body[68:]
		if nw < 0 || len(body) < 16*nw {
			return bad()
		}
		if nw > 0 {
			f.PeerEmitted = make([]int64, nw)
			f.PeerProcessed = make([]int64, nw)
			for i := 0; i < nw; i++ {
				f.PeerEmitted[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
			}
			body = body[8*nw:]
			for i := 0; i < nw; i++ {
				f.PeerProcessed[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
			}
		}
	case frameResume:
		if len(body) < 21 {
			return bad()
		}
		f.Session = binary.LittleEndian.Uint64(body)
		f.Epoch = binary.LittleEndian.Uint32(body[8:])
		f.LastSeq = binary.LittleEndian.Uint64(body[12:])
		f.CanReplay = body[20] != 0
	case frameCoordResume:
		if len(body) < 37 {
			return bad()
		}
		f.Session = binary.LittleEndian.Uint64(body)
		f.Epoch = binary.LittleEndian.Uint32(body[8:])
		f.LastSeq = binary.LittleEndian.Uint64(body[12:])
		f.AckedSeq = binary.LittleEndian.Uint64(body[20:])
		f.Digest = binary.LittleEndian.Uint64(body[28:])
		f.CanReplay = body[36] != 0
	case frameResumeOK:
		if len(body) < 8 {
			return bad()
		}
		f.LastSeq = binary.LittleEndian.Uint64(body)
	case framePeerAddr:
		if len(body) < 2 {
			return bad()
		}
		al := int(binary.LittleEndian.Uint16(body))
		if len(body) < 2+al {
			return bad()
		}
		f.Addr = string(body[2 : 2+al])
	case framePeerHello:
		if len(body) < 25 {
			return bad()
		}
		f.From = int32(binary.LittleEndian.Uint32(body))
		f.Session = binary.LittleEndian.Uint64(body[4:])
		f.Epoch = binary.LittleEndian.Uint32(body[12:])
		f.LastSeq = binary.LittleEndian.Uint64(body[16:])
		f.CanReplay = body[24] != 0
	case framePeerHelloOK:
		if len(body) < 8 {
			return bad()
		}
		f.LastSeq = binary.LittleEndian.Uint64(body)
	case framePeerEpoch:
		if len(body) < 8 {
			return bad()
		}
		f.From = int32(binary.LittleEndian.Uint32(body))
		f.Epoch = binary.LittleEndian.Uint32(body[4:])
	case framePeerDown:
		if len(body) < 4 {
			return bad()
		}
		f.From = int32(binary.LittleEndian.Uint32(body))
	case framePing, framePong, frameShutdown, frameAck:
		// envelope and kind byte only
	default:
		kind := f.Kind
		putFrame(f)
		return nil, fmt.Errorf("tcpnet: unknown frame kind %d: %w", kind, wire.ErrUnknownKind)
	}
	return f, nil
}
