// Package remote is the wire layer of the distributed MapReduce
// runtime: length-prefixed frames over a byte stream (TCP in
// production, loopback or pipes in tests), the coordinator/worker
// handshake, and the message vocabulary the two sides exchange. It
// knows nothing about keys, values, or jobs — payload encoding beyond
// the fixed header fields belongs to the engine (internal/mapreduce),
// which owns the typed codecs. Keeping the package this small means the
// protocol can be unit-tested without an engine and the engine can be
// tested without sockets.
//
// Framing: every message is one frame — a uvarint payload length
// followed by the payload, whose first byte is the message type. A
// frame is the atomic unit of interleaving: writers serialize whole
// frames under the connection's lock, so a bucket from one map task
// never interleaves with another's, and readers need no resynchronization.
//
// Session resume (resume.go): a Conn is an endpoint identity that can
// outlive its transport. When resume is enabled after the handshake,
// both sides number the frames they exchange and keep a bounded
// retransmit ring of sent frames; a transport error makes the worker
// redial and re-attach by worker id + session token, and each side
// replays the frames the other had not yet received. The engine above
// never sees the blip — its ReadFrame/WriteFrame simply succeed on the
// replacement transport.
package remote

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proto is the protocol version exchanged in the handshake. A
// coordinator and worker built from different engine revisions refuse
// to pair rather than diverge silently. Version 2 added the heartbeat
// interval to the welcome and the ping/pong/shed messages. Version 3
// switched bulk pair payloads to versioned codec-v2 blobs and added the
// wire-compression byte to the job header. Version 4 added the
// capability flags to the hello, the session token to the welcome, and
// the resume hello/welcome forms that re-attach a redialed transport.
// Version 5 changed no frame: the partitioner did (named integer keys
// such as graph.NodeID moved from the fmt hash to mix64), and two
// builds that route a key to different partitions must not pair.
// Version 6 dropped the worker-counter section from MsgJobDone.
// Version 7 added each partition's reduce side output to it. Version 8
// dropped the message that streamed reduce output back (renumbering
// every later one) and the job header byte that asked for it: reduce
// output is always retained and fetched. Version 9 added the job header
// byte that marks a state job, whose reduce joins the resident input
// with the shuffled messages; the matching algorithms' jobs that became
// state jobs send other bucket bytes than before (no node state, and
// GreedyMR's message as an int32 column). Version 10 changed no frame
// layout but the maximal-matching stages' jobs: they became state jobs,
// so their headers carry the state-job byte, their buckets an int32
// column instead of tagged node states, and their maps run on the
// workers from parameters a version-9 worker does not know. Version 11
// changed no frame layout but the stack jobs: stack-update and
// stack-filter keep a node record that carries the node's dual, their
// parameters no longer carry every dual, and mm-cleanup and stack-update
// retain other outputs and report through the side output. Version 12
// changed no frame layout but one value column: the similarity join's
// index job retains each term's postings as a group that encodes itself
// (a count, then the postings), not as a slice of length-prefixed
// posting elements. Version 13 added the build and built messages: a
// Dataset built by mapreduce.BuildDS (GreedyMR's round-0 node view) is
// built on the workers from a registered builder, and re-seeded by
// rebuilding it, instead of being placed from coordinator-encoded seeds.
// Version 14 dropped the ping message (renumbering every later one) and
// the pong's progress payload: a pong is the bare type byte.
// Version 15 dropped the job header's wire-compression byte and the
// wire-compression tally that ended MsgJobDone; a pair blob with the
// flate marker (0x03) is refused as an unknown codec marker.
// Version 16 dropped the checkpoint message and the shed message
// (renumbering every later one) and the job header byte that asked for
// checkpoints: the coordinator keeps no copy of a job's output, recovery
// recomputes a lost partition from its lineage instead, and a seed
// replaces a stale copy where it lies.
// Version 17 dropped the abort and aborted messages (renumbering every
// later one): an attempt that loses a worker runs to its end on the
// survivors, and the coordinator drops its output.
// Version 18 dropped the job header's mode byte and split count: every
// job maps on the workers that hold its input, an input the coordinator
// holds is placed there first, and the header's flag byte marks an
// input cut into contiguous splits, whose maps hash every pair. It also
// added each worker's buffer-pool byte and miss deltas to MsgJobDone.
const Proto = 18

// MsgType identifies one protocol message. The direction annotations
// are the only ones that occur; receiving a type from the wrong
// direction is a protocol error.
type MsgType byte

const (
	// MsgHello (worker → coordinator) opens a connection: proto version
	// and capability flags. The resume form carries the worker id,
	// session token, and received-frame count of the session it
	// re-attaches to.
	MsgHello MsgType = 1 + iota
	// MsgWelcome (coordinator → worker) completes the handshake: proto
	// version, worker id, worker count, heartbeat interval, session
	// token. The resume form carries only the coordinator's
	// received-frame count.
	MsgWelcome
	// MsgJobStart (coordinator → worker) announces one job: sequence
	// number, job name, partition count, flags, input sequence number,
	// partition owners, codec ids, and the job parameter blob.
	MsgJobStart
	// MsgBucket carries one pre-partitioned bucket of intermediate
	// pairs a worker's map emitted for a partition another worker owns:
	// worker → coordinator, which relays the frame unchanged to the
	// owner (coordinator → worker).
	MsgBucket
	// MsgMapDone (worker → coordinator) reports that the
	// worker finished mapping its resident partitions (all its MsgBucket
	// frames precede it on the connection).
	MsgMapDone
	// MsgFlush (coordinator → worker) seals ingestion for the job: every
	// bucket addressed to the worker has been delivered; group, reduce,
	// and report.
	MsgFlush
	// MsgJobDone (worker → coordinator) closes the worker's side of a
	// job: reduce statistics, the worker's buffer-pool deltas and, per
	// owned partition, the resident record count and the reduce tasks'
	// side output.
	MsgJobDone
	// MsgFetch (coordinator → worker) asks for the resident output
	// partitions of an earlier job.
	MsgFetch
	// MsgPart (worker → coordinator) streams one resident partition in
	// response to MsgFetch; MsgFetchDone follows the last one.
	MsgPart
	// MsgFetchDone (worker → coordinator) ends a fetch reply.
	MsgFetchDone
	// MsgDrop (coordinator → worker) frees the resident output of an
	// earlier job (Dataset.Recycle's remote half). No reply.
	MsgDrop
	// MsgError (worker → coordinator) reports a fatal job error; the
	// worker closes the connection after sending it. The coordinator
	// also sends it raw to refuse a resume attempt.
	MsgError
	// MsgBye (coordinator → worker) ends the session; the worker exits
	// its serve loop cleanly.
	MsgBye
	// MsgSeed (coordinator → worker) installs one partition of a Dataset
	// the coordinator holds a copy of on the worker that now owns it:
	// sequence number, partition, pair count, and the encoded pair blob.
	// Ordered before the MsgJobStart of the job that reads it on the
	// same connection, so no acknowledgement is needed.
	MsgSeed
	// MsgPong (worker → coordinator) is the heartbeat, the bare type
	// byte. Workers send it on the interval the welcome announced; its
	// arrival is all the coordinator's health monitor reads. Pongs
	// travel outside the fault-injection frame count so seeded fault
	// points stay stable.
	MsgPong
	// MsgBuild (coordinator → worker) asks the worker to build one
	// partition of a Dataset from a builder it registered and keep it
	// resident: sequence number, partition, partition count, builder
	// name and the builder's parameter blob. It both places a built
	// Dataset and re-seeds a lost or consumed partition of one.
	MsgBuild
	// MsgBuilt (worker → coordinator) answers MsgBuild once the
	// partition is built and resident: sequence number, partition and
	// its record count.
	MsgBuilt
)

// String names the message type for error text.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgJobStart:
		return "job-start"
	case MsgBucket:
		return "bucket"
	case MsgMapDone:
		return "map-done"
	case MsgFlush:
		return "flush"
	case MsgJobDone:
		return "job-done"
	case MsgFetch:
		return "fetch"
	case MsgPart:
		return "part"
	case MsgFetchDone:
		return "fetch-done"
	case MsgDrop:
		return "drop"
	case MsgError:
		return "error"
	case MsgBye:
		return "bye"
	case MsgSeed:
		return "seed"
	case MsgPong:
		return "pong"
	case MsgBuild:
		return "build"
	case MsgBuilt:
		return "built"
	}
	return fmt.Sprintf("msg(%d)", byte(t))
}

// maxFrame bounds a single frame so a corrupted length prefix cannot
// drive an allocation of arbitrary size. 1 GiB comfortably holds the
// largest realistic partition frame.
const maxFrame = 1 << 30

// transport is one byte stream carrying the connection: the socket and
// its buffered reader/writer. A Conn holds exactly one live transport
// at a time; session resume replaces it wholesale, so no transport
// state survives a reconnect except the Conn-level frame accounting.
type transport struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func newTransport(c net.Conn) *transport {
	return &transport{
		c:  c,
		br: bufio.NewReaderSize(c, 1<<16),
		bw: bufio.NewWriterSize(c, 1<<16),
	}
}

// Conn is one framed connection endpoint. Reads and writes are
// independently safe: any number of goroutines may WriteFrame (whole
// frames serialize under the write lock), while a single reader owns
// ReadFrame. BytesIn/BytesOut count frame bytes in both directions —
// the engine's RemoteBytesIn/RemoteBytesOut stats snapshot them.
type Conn struct {
	// tr is the current transport. It is replaced (never mutated) by
	// session resume; readers load it once per frame and writers once
	// per frame under wmu.
	tr atomic.Pointer[transport]

	wmu      sync.Mutex
	lenBuf   [binary.MaxVarintLen64]byte
	bytesIn  atomic.Int64
	bytesOut atomic.Int64

	// fault, when armed, injects a deterministic failure into this
	// endpoint's frame stream (see fault.go). Nil in production.
	fault atomic.Pointer[Fault]

	// lastRead is the unixnano timestamp of the last successfully read
	// frame — the raw signal the coordinator's health monitor works
	// from: any frame a worker sends (pong or payload) proves liveness.
	lastRead atomic.Int64

	// res, when non-nil, makes this endpoint survive transport loss by
	// session resume (see resume.go). Enabled once, right after the
	// handshake, before any counted frame moves.
	res atomic.Pointer[resumeState]

	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// NewConn wraps a network connection in the framed protocol.
func NewConn(c net.Conn) *Conn {
	conn := &Conn{}
	conn.tr.Store(newTransport(c))
	return conn
}

// BytesIn returns the cumulative payload bytes read from the peer.
func (c *Conn) BytesIn() int64 { return c.bytesIn.Load() }

// BytesOut returns the cumulative payload bytes written to the peer.
func (c *Conn) BytesOut() int64 { return c.bytesOut.Load() }

// LastRead returns the time the last complete frame was read from the
// peer, or the zero time if none has been. Any frame counts: a silent
// peer is one whose connection has moved nothing toward us.
func (c *Conn) LastRead() time.Time {
	ns := c.lastRead.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Closed reports whether Close has been called on this endpoint. An
// armed stall fault polls it so an injected hang releases its blocked
// goroutines when the local endpoint is torn down.
func (c *Conn) Closed() bool { return c.closed.Load() }

// sever kills the endpoint's byte stream the way a real network cut
// would: a resume-enabled endpoint loses only its current transport
// (the session survives and may re-attach), a plain one is closed for
// good — the pre-resume behavior every legacy fault test pins.
func (c *Conn) sever() {
	if c.res.Load() != nil {
		c.tr.Load().c.Close()
		return
	}
	c.Close()
}

// writeFrameTo appends one length-prefixed frame to tr's write buffer,
// optionally flushing. Callers hold wmu.
func (c *Conn) writeFrameTo(tr *transport, payload []byte, flush bool) error {
	n := binary.PutUvarint(c.lenBuf[:], uint64(len(payload)))
	if _, err := tr.bw.Write(c.lenBuf[:n]); err != nil {
		return err
	}
	if _, err := tr.bw.Write(payload); err != nil {
		return err
	}
	if flush {
		if err := tr.bw.Flush(); err != nil {
			return err
		}
	}
	c.bytesOut.Add(int64(n + len(payload)))
	return nil
}

// cutFrameTo is FaultCut's trigger action: ship the frame's length
// prefix and the first CutBytes payload bytes, flush, and sever — the
// peer reads a frame that dies mid-payload, exactly what a connection
// cut between two TCP segments produces. Callers hold wmu.
func (c *Conn) cutFrameTo(tr *transport, f *Fault, payload []byte) error {
	k := f.CutBytes
	if k < 0 {
		k = 0
	}
	if k > len(payload) {
		k = len(payload)
	}
	n := binary.PutUvarint(c.lenBuf[:], uint64(len(payload)))
	tr.bw.Write(c.lenBuf[:n])
	tr.bw.Write(payload[:k])
	tr.bw.Flush()
	c.sever()
	return errSevered
}

// writeFrame is the shared body of the three write entry points. pulse
// frames skip the armed fault's frame count (holdIfStalled only).
func (c *Conn) writeFrame(payload []byte, flush, pulse bool) error {
	c.wmu.Lock()
	tr := c.tr.Load()
	if rs := c.res.Load(); rs != nil {
		rs.appendLocked(payload)
	}
	var err error
	if f := c.fault.Load(); f != nil {
		if pulse {
			err = f.holdIfStalled(c)
		} else {
			err = f.beforeWrite(c)
		}
		if err == errCutFrame {
			err = c.cutFrameTo(tr, f, payload)
		}
	}
	if err == nil {
		err = c.writeFrameTo(tr, payload, flush)
	}
	c.wmu.Unlock()
	if err == nil || !c.recoverable(err) {
		return err
	}
	// Resume-enabled and the transport failed: the frame is already in
	// the retransmit ring, so a successful recovery has delivered it (or
	// queued it on the replacement transport) — report success.
	if rerr := c.recover(tr); rerr != nil {
		return err
	}
	return nil
}

// WriteFrame sends one whole frame (the payload's first byte must be
// the message type) and flushes it, so a frame is visible to the peer
// as soon as the call returns — the protocol's barriers (flush, done)
// rely on that.
func (c *Conn) WriteFrame(payload []byte) error {
	return c.writeFrame(payload, true, false)
}

// WritePulse sends one whole frame like WriteFrame but outside the
// armed fault's frame count: heartbeat pongs ride this path so arming a
// seeded fault does not shift its trigger index by however many pongs
// the ticker happened to emit. A fault that has already fired as a
// stall still blocks the pulse — a stalled endpoint must fall silent in
// both directions, heartbeats included, or it would never look hung.
func (c *Conn) WritePulse(payload []byte) error {
	return c.writeFrame(payload, true, true)
}

// readFrameFrom reads one frame from tr. Only the connection's single
// reader calls it.
func (c *Conn) readFrameFrom(tr *transport) ([]byte, error) {
	f := c.fault.Load()
	if f != nil {
		if err := f.holdIfStalled(c); err != nil {
			return nil, err
		}
	}
	n, err := binary.ReadUvarint(tr.br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("remote: reading frame length: %w", err)
	}
	if n > maxFrame {
		return nil, fmt.Errorf("remote: frame of %d bytes exceeds the %d byte limit", n, maxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(tr.br, payload); err != nil {
		return nil, fmt.Errorf("remote: truncated frame: %w", err)
	}
	if len(payload) == 0 {
		return nil, fmt.Errorf("remote: empty frame")
	}
	c.bytesIn.Add(uvarintLen(n) + int64(n))
	c.lastRead.Store(time.Now().UnixNano())
	// The fault count is charged after the frame type is known, so
	// heartbeat pongs stay outside it — the read-direction mirror of
	// WritePulse. A seeded AfterReads index thus means "the k-th protocol
	// frame" no matter how many pongs interleave. A fault that fires here
	// withholds the frame it triggered on, exactly as if it had fired
	// before the read.
	if f != nil && MsgType(payload[0]) != MsgPong {
		if err := f.beforeRead(c); err != nil {
			return nil, err
		}
	}
	// Received-frame accounting happens only after the frame is truly
	// delivered to the caller: a frame withheld by the fault charge above
	// must be replayed by the peer after a resume, so it must not count.
	if rs := c.res.Load(); rs != nil {
		rs.rcvd.Add(1)
	}
	return payload, nil
}

// ReadFrame reads the next frame payload. The returned slice is owned
// by the caller. io.EOF surfaces only on a clean frame boundary; a
// partial frame reports a truncation error. On a resume-enabled
// endpoint a transport error triggers recovery (worker: redial,
// coordinator: await re-attach) and the read transparently continues on
// the replacement transport.
func (c *Conn) ReadFrame() ([]byte, error) {
	for {
		tr := c.tr.Load()
		payload, err := c.readFrameFrom(tr)
		if err == nil {
			return payload, nil
		}
		if !c.recoverable(err) {
			return nil, err
		}
		if rerr := c.recover(tr); rerr != nil {
			return nil, err
		}
	}
}

// Close tears the connection down. Safe to call from any goroutine and
// idempotent; a blocked ReadFrame or WriteFrame on another goroutine
// returns with an error once the underlying connection closes. Closing
// also retires the session: a resume-enabled endpoint stops recovering
// and refuses re-attachment.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		c.closeErr = c.tr.Load().c.Close()
	})
	return c.closeErr
}

// SetReadDeadline bounds blocked reads on the underlying connection;
// the zero time clears the bound. The coordinator arms it where it waits
// on one worker's reply (a build, a fetch, a parting error), so a wedged
// worker is declared dead by timeout instead of wedging the cluster.
// Deadline expiries are timeouts, which session resume deliberately does
// not treat as transport loss.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.tr.Load().c.SetReadDeadline(t) }

func uvarintLen(v uint64) int64 {
	n := int64(1)
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// --- payload encoding helpers -----------------------------------------
//
// Payloads are built with append-style helpers mirroring encoding/binary
// and consumed with a cursor that latches its first error, so message
// builders and parsers read as straight-line field lists.

// AppendUvarint appends v to buf.
func AppendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

// AppendString appends a uvarint length and the string bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends a uvarint length and the raw bytes.
func AppendBytes(buf []byte, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// Cursor decodes a payload field by field. The zero value over a
// payload is ready to use; Err reports the first malformed field and
// every later read returns zero values.
type Cursor struct {
	data []byte
	err  error
}

// NewCursor returns a cursor over payload.
func NewCursor(payload []byte) *Cursor { return &Cursor{data: payload} }

// Err returns the first decode error.
func (c *Cursor) Err() error { return c.err }

// Rest returns the undecoded remainder of the payload.
func (c *Cursor) Rest() []byte { return c.data }

func (c *Cursor) fail() {
	if c.err == nil {
		c.err = fmt.Errorf("remote: truncated message payload")
	}
}

// Byte reads one raw byte.
func (c *Cursor) Byte() byte {
	if c.err != nil || len(c.data) < 1 {
		c.fail()
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return b
}

// Uvarint reads one unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.data)
	if n <= 0 {
		c.fail()
		return 0
	}
	c.data = c.data[n:]
	return v
}

// String reads a length-prefixed string.
func (c *Cursor) String() string { return string(c.Bytes()) }

// Bytes reads a length-prefixed byte field. The returned slice aliases
// the payload.
func (c *Cursor) Bytes() []byte {
	n := c.Uvarint()
	if c.err != nil || uint64(len(c.data)) < n {
		c.fail()
		return nil
	}
	b := c.data[:n]
	c.data = c.data[n:]
	return b
}

// --- handshake --------------------------------------------------------

// Hello capability flags (the byte after the proto version).
const (
	// helloFlagResumeCapable: the worker can redial and resume its
	// session if the coordinator enables it in the welcome.
	helloFlagResumeCapable = 1 << 0
	// helloFlagResume: this hello re-attaches an existing session; the
	// worker id, session token, and received-frame count follow.
	helloFlagResume = 1 << 1
)

// Hello sends the worker's opening message. resumeCapable announces
// that the worker is willing to redial and resume its session; the
// coordinator decides in the welcome whether resume is actually on.
func Hello(c *Conn, resumeCapable bool) error {
	buf := AppendUvarint([]byte{byte(MsgHello)}, Proto)
	var flags byte
	if resumeCapable {
		flags |= helloFlagResumeCapable
	}
	return c.WriteFrame(append(buf, flags))
}

// HelloInfo is the parsed form of a worker's hello: either a fresh join
// or a resume of an existing session.
type HelloInfo struct {
	// ResumeCapable reports whether the worker is willing to redial and
	// resume (fresh hellos only).
	ResumeCapable bool
	// Resume marks a re-attach hello; the remaining fields identify the
	// session.
	Resume   bool
	WorkerID int
	Token    uint64
	// Received is how many counted frames the worker had read from the
	// coordinator before the transport died — the coordinator replays
	// everything after it.
	Received uint64
}

// AwaitHello reads and validates a worker's hello.
func AwaitHello(c *Conn) (HelloInfo, error) {
	payload, err := c.ReadFrame()
	if err != nil {
		return HelloInfo{}, err
	}
	cur := NewCursor(payload)
	if t := MsgType(cur.Byte()); t != MsgHello {
		return HelloInfo{}, fmt.Errorf("remote: expected hello, got %v", t)
	}
	if v := cur.Uvarint(); v != Proto || cur.Err() != nil {
		return HelloInfo{}, fmt.Errorf("remote: protocol version mismatch: worker speaks %d, coordinator %d", v, Proto)
	}
	flags := cur.Byte()
	info := HelloInfo{
		ResumeCapable: flags&helloFlagResumeCapable != 0,
		Resume:        flags&helloFlagResume != 0,
	}
	if info.Resume {
		info.WorkerID = int(cur.Uvarint())
		info.Token = cur.Uvarint()
		info.Received = cur.Uvarint()
	}
	if err := cur.Err(); err != nil {
		return HelloInfo{}, fmt.Errorf("remote: malformed hello: %w", err)
	}
	return info, nil
}

// Welcome sends the coordinator's handshake reply. heartbeatEvery is
// the unsolicited-pong interval the worker should keep (zero or
// negative disables heartbeats on this connection). token is the
// session token a resume hello must present; resume tells the worker
// whether session resume is enabled on this connection.
func Welcome(c *Conn, workerID, numWorkers int, heartbeatEvery time.Duration, token uint64, resume bool) error {
	if heartbeatEvery < 0 {
		heartbeatEvery = 0
	}
	buf := []byte{byte(MsgWelcome)}
	buf = AppendUvarint(buf, Proto)
	buf = AppendUvarint(buf, uint64(workerID))
	buf = AppendUvarint(buf, uint64(numWorkers))
	buf = AppendUvarint(buf, uint64(heartbeatEvery))
	buf = AppendUvarint(buf, token)
	if resume {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return c.WriteFrame(buf)
}

// WelcomeInfo is what the coordinator's welcome tells a worker about
// its place in the cluster.
type WelcomeInfo struct {
	WorkerID   int
	NumWorkers int
	// HeartbeatEvery is the interval at which the worker should send
	// unsolicited MsgPong frames; zero disables them.
	HeartbeatEvery time.Duration
	// Token is the session token minted for this connection; a resume
	// hello presents it to prove it re-attaches this session.
	Token uint64
	// Resume reports whether the coordinator enabled session resume on
	// this connection (the worker announced capability and the cluster
	// has a reconnect grace window).
	Resume bool
}

// AwaitWelcome reads and validates the coordinator's welcome.
func AwaitWelcome(c *Conn) (WelcomeInfo, error) {
	payload, err := c.ReadFrame()
	if err != nil {
		return WelcomeInfo{}, err
	}
	cur := NewCursor(payload)
	if t := MsgType(cur.Byte()); t != MsgWelcome {
		return WelcomeInfo{}, fmt.Errorf("remote: expected welcome, got %v", t)
	}
	if v := cur.Uvarint(); v != Proto {
		return WelcomeInfo{}, fmt.Errorf("remote: protocol version mismatch: coordinator speaks %d, worker %d", v, Proto)
	}
	var info WelcomeInfo
	info.WorkerID = int(cur.Uvarint())
	info.NumWorkers = int(cur.Uvarint())
	info.HeartbeatEvery = time.Duration(cur.Uvarint())
	info.Token = cur.Uvarint()
	info.Resume = cur.Byte() != 0
	if err := cur.Err(); err != nil {
		return WelcomeInfo{}, err
	}
	if info.NumWorkers < 1 || info.WorkerID < 0 || info.WorkerID >= info.NumWorkers {
		return WelcomeInfo{}, fmt.Errorf("remote: malformed welcome: worker %d of %d", info.WorkerID, info.NumWorkers)
	}
	return info, nil
}

// Owner maps a reduce partition to the worker that owns it: the fixed
// round-robin rule both sides apply, so partition assignment never
// travels beyond the worker count in the handshake.
func Owner(part, numWorkers int) int { return part % numWorkers }
