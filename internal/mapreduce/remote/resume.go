package remote

// Session resume: surviving transport loss without losing the session.
//
// A Conn is an endpoint identity — worker id, session token, frame
// accounting — that can outlive the byte stream carrying it. When
// EnableResume is called (by both sides, immediately after the
// handshake, before any other frame moves), every subsequent frame is
// counted in both directions and every written frame is copied into a
// bounded retransmit ring. On a transport error:
//
//   - the worker redials the coordinator with jittered exponential
//     backoff and sends a resume hello carrying its worker id, session
//     token, and received-frame count;
//   - the coordinator's accept loop routes the hello to the existing
//     Conn, which verifies the token, answers with its own
//     received-frame count, and swaps in the new transport;
//   - each side prunes its ring to the frames the peer confirms and
//     replays the rest, in order, before any new frame may be written.
//
// The engine above never observes the blip: ReadFrame and WriteFrame
// simply complete on the replacement transport. Recovery refuses two
// things by design: timeouts (a reply deadline must keep its
// fail-fast meaning) and frames that have fallen out of the bounded
// ring (the peer was gone longer than the ring could cover — the
// caller escalates to worker-loss recovery, which needs no
// transport-level help).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// resumeRingFrames / resumeRingBytes bound the retransmit ring. A
	// peer that reconnects needing frames already pruned is refused and
	// falls back to the reseed path, so the ring trades memory for how
	// much un-acknowledged traffic a blip may span.
	resumeRingFrames = 1024
	resumeRingBytes  = 8 << 20

	// resumeHandshakeTimeout bounds each resume hello/welcome exchange
	// so a half-dead replacement socket cannot wedge recovery.
	resumeHandshakeTimeout = 5 * time.Second
)

// errResumeRefused marks a permanent refusal from the peer (bad token,
// pruned ring, retired session): redialing again cannot help.
var errResumeRefused = errors.New("remote: resume refused by peer")

// ResumeConfig enables session resume on one endpoint.
type ResumeConfig struct {
	// Token is the session token minted by the coordinator at handshake;
	// a resume hello must present it.
	Token uint64
	// WorkerID names the session in resume hellos.
	WorkerID int
	// Dial, when non-nil, makes this the redialing side (the worker): on
	// transport loss the endpoint dials a replacement connection and
	// re-attaches. When nil, the endpoint waits — up to Grace — for the
	// peer to re-attach through Reattach.
	Dial func() (net.Conn, error)
	// Attempts / BaseDelay / MaxDelay shape the redial backoff
	// (defaults: 8 attempts, 50ms doubling to 1s, ±25% jitter).
	Attempts  int
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Seed feeds the deterministic jitter so chaos tests replay exactly.
	Seed uint64
	// Grace bounds how long the waiting side holds a broken session open
	// for re-attachment before surfacing the original transport error
	// (default 10s).
	Grace time.Duration
}

// resumeState is the per-Conn resume machinery. The ring fields (sent,
// ring, ringLo, ringBytes) are guarded by the Conn's write lock, since
// every mutation happens on the write path or under it during replay;
// rcvd is read-path-only but loaded from handshakes, so it is atomic.
type resumeState struct {
	cfg ResumeConfig

	// off retires the session: no more recovery, re-attachment refused.
	off atomic.Bool

	// sent counts frames appended to the ring since the session began;
	// ring[i] is frame number ringLo+i+1. Guarded by Conn.wmu.
	sent      uint64
	ring      [][]byte
	ringLo    uint64
	ringBytes int

	// rcvd counts frames this endpoint has fully delivered to its
	// caller; the peer replays everything after it.
	rcvd atomic.Uint64

	// mu single-flights recovery: reader and writers can fail on the
	// same dead transport concurrently, but only one runs the redial or
	// re-attach wait; the rest observe the swapped transport and retry.
	// Lock order: mu before Conn.wmu, never the reverse.
	mu sync.Mutex

	// waiting counts goroutines parked in recovery; the coordinator's
	// health monitor reads it (via Conn.Recovering) to hold the grace
	// window before escalating to reseed.
	waiting atomic.Int32

	reconnects atomic.Int64
	replayed   atomic.Int64
}

// EnableResume turns on session resume for this endpoint. Both sides
// must call it at the same protocol point — immediately after the
// handshake — so their frame counts align. Calling it at most once,
// before any concurrent frame traffic, is the caller's contract.
func (c *Conn) EnableResume(cfg ResumeConfig) {
	if cfg.Attempts <= 0 {
		cfg.Attempts = 8
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 50 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = time.Second
	}
	if cfg.Grace <= 0 {
		cfg.Grace = 10 * time.Second
	}
	c.res.Store(&resumeState{cfg: cfg})
}

// ShutdownResume retires the session without closing the transport:
// later transport errors surface immediately instead of triggering
// recovery, and re-attachment is refused. The coordinator calls it on
// every connection at cluster close, so the shutdown byes are
// fail-fast rather than grace-window waits.
func (c *Conn) ShutdownResume() {
	if rs := c.res.Load(); rs != nil {
		rs.off.Store(true)
	}
}

// Reconnects returns how many times this endpoint's session has
// re-attached to a replacement transport.
func (c *Conn) Reconnects() int64 {
	if rs := c.res.Load(); rs != nil {
		return rs.reconnects.Load()
	}
	return 0
}

// FramesReplayed returns how many ring frames this endpoint has
// re-sent across reconnects.
func (c *Conn) FramesReplayed() int64 {
	if rs := c.res.Load(); rs != nil {
		return rs.replayed.Load()
	}
	return 0
}

// Recovering reports whether a goroutine is currently parked in this
// endpoint's recovery (redialing, or holding the grace window for the
// peer to re-attach). The health monitor never declares a recovering
// worker lost: the grace window is the resume layer's to run.
func (c *Conn) Recovering() bool {
	rs := c.res.Load()
	return rs != nil && rs.waiting.Load() > 0
}

// appendLocked copies one outgoing frame into the retransmit ring,
// pruning the oldest frames past the ring bounds (always keeping the
// newest). Called with Conn.wmu held, before the frame is written, so
// a frame that dies mid-write is already in the ring to resend.
func (rs *resumeState) appendLocked(payload []byte) {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	rs.ring = append(rs.ring, cp)
	rs.sent++
	rs.ringBytes += len(cp)
	for len(rs.ring) > 1 && (len(rs.ring) > resumeRingFrames || rs.ringBytes > resumeRingBytes) {
		rs.ringBytes -= len(rs.ring[0])
		rs.ring[0] = nil
		rs.ring = rs.ring[1:]
		rs.ringLo++
	}
}

// pruneLocked drops ring frames the peer has confirmed received.
// Called with Conn.wmu held.
func (rs *resumeState) pruneLocked(peerRcvd uint64) {
	for rs.ringLo < peerRcvd && len(rs.ring) > 0 {
		rs.ringBytes -= len(rs.ring[0])
		rs.ring[0] = nil
		rs.ring = rs.ring[1:]
		rs.ringLo++
	}
}

// replayLocked re-sends every ring frame after peerRcvd on tr, raw (no
// fault hooks — replay is the recovery mechanism itself, not new
// traffic). Called with Conn.wmu held so no fresh frame can interleave
// ahead of the replayed ones.
func (rs *resumeState) replayLocked(c *Conn, tr *transport, peerRcvd uint64) (int, error) {
	rs.pruneLocked(peerRcvd)
	n := 0
	for _, payload := range rs.ring {
		if err := c.writeFrameTo(tr, payload, false); err != nil {
			return n, err
		}
		n++
	}
	if err := tr.bw.Flush(); err != nil {
		return n, err
	}
	rs.replayed.Add(int64(n))
	return n, nil
}

// recoverable reports whether err on a frame read/write should trigger
// recovery instead of surfacing. Timeouts keep their fail-fast meaning
// (reply-deadline expiries), and a closed or retired session never
// recovers.
func (c *Conn) recoverable(err error) bool {
	rs := c.res.Load()
	if rs == nil || rs.off.Load() || c.closed.Load() {
		return false
	}
	if err == errStalled {
		return false
	}
	var ne net.Error
	return !errors.As(err, &ne) || !ne.Timeout()
}

// recover replaces the failed transport: the dialing side redials with
// backoff, the waiting side holds the grace window for the peer to
// re-attach. Single-flighted; a second goroutine failing on the same
// transport waits and then observes the swap.
func (c *Conn) recover(failed *transport) error {
	rs := c.res.Load()
	rs.waiting.Add(1)
	defer rs.waiting.Add(-1)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if c.tr.Load() != failed {
		return nil // another goroutine already recovered
	}
	failed.c.Close()
	if rs.cfg.Dial != nil {
		return c.redialLocked(rs)
	}
	return c.awaitReattachLocked(rs, failed)
}

// redialLocked is the worker side of recovery: dial, resume-handshake,
// install, replay — with jittered exponential backoff between
// attempts. Called with rs.mu held.
func (c *Conn) redialLocked(rs *resumeState) error {
	var lastErr error = fmt.Errorf("remote: no reconnect attempts configured")
	for a := 0; a < rs.cfg.Attempts; a++ {
		if a > 0 {
			time.Sleep(Backoff(a-1, rs.cfg.BaseDelay, rs.cfg.MaxDelay, rs.cfg.Seed))
		}
		if c.closed.Load() || rs.off.Load() {
			return fmt.Errorf("remote: session closed during reconnect")
		}
		nc, err := rs.cfg.Dial()
		if err != nil {
			lastErr = err
			continue
		}
		tr := newTransport(nc)
		peerRcvd, err := c.resumeHandshake(rs, tr)
		if err != nil {
			nc.Close()
			if errors.Is(err, errResumeRefused) {
				return err
			}
			lastErr = err
			continue
		}
		c.wmu.Lock()
		if peerRcvd < rs.ringLo || peerRcvd > rs.sent {
			c.wmu.Unlock()
			nc.Close()
			return fmt.Errorf("remote: resume window exceeded: peer received %d, ring covers [%d,%d]", peerRcvd, rs.ringLo, rs.sent)
		}
		c.tr.Load().c.Close()
		c.tr.Store(tr)
		_, rerr := rs.replayLocked(c, tr, peerRcvd)
		c.wmu.Unlock()
		if rerr != nil {
			nc.Close()
			lastErr = rerr
			continue
		}
		rs.reconnects.Add(1)
		return nil
	}
	return fmt.Errorf("remote: reconnect failed after %d attempts: %w", rs.cfg.Attempts, lastErr)
}

// resumeHandshake runs the worker's side of the re-attach exchange on
// a fresh transport: send the resume hello, await the coordinator's
// resume welcome carrying its received-frame count.
func (c *Conn) resumeHandshake(rs *resumeState, tr *transport) (uint64, error) {
	tr.c.SetDeadline(time.Now().Add(resumeHandshakeTimeout))
	defer tr.c.SetDeadline(time.Time{})
	hello := []byte{byte(MsgHello)}
	hello = AppendUvarint(hello, Proto)
	hello = append(hello, helloFlagResumeCapable|helloFlagResume)
	hello = AppendUvarint(hello, uint64(rs.cfg.WorkerID))
	hello = AppendUvarint(hello, rs.cfg.Token)
	hello = AppendUvarint(hello, rs.rcvd.Load())
	if err := writeRawFrame(tr, hello); err != nil {
		return 0, err
	}
	payload, err := readRawFrame(tr)
	if err != nil {
		return 0, err
	}
	cur := NewCursor(payload)
	switch t := MsgType(cur.Byte()); t {
	case MsgWelcome:
	case MsgError:
		cur.Uvarint() // sequence field, zero in handshake refusals
		return 0, fmt.Errorf("%w: %s", errResumeRefused, cur.String())
	default:
		return 0, fmt.Errorf("remote: expected resume welcome, got %v", t)
	}
	if v := cur.Uvarint(); v != Proto {
		return 0, fmt.Errorf("remote: protocol version mismatch on resume: %d vs %d", v, Proto)
	}
	peerRcvd := cur.Uvarint()
	if err := cur.Err(); err != nil {
		return 0, fmt.Errorf("remote: malformed resume welcome: %w", err)
	}
	return peerRcvd, nil
}

// awaitReattachLocked is the waiting (coordinator) side of recovery:
// hold the session open for up to Grace while the accept loop feeds a
// replacement transport through Reattach. Called with rs.mu held;
// Reattach takes only Conn.wmu, so the wait and the re-attach cannot
// deadlock.
func (c *Conn) awaitReattachLocked(rs *resumeState, failed *transport) error {
	deadline := time.Now().Add(rs.cfg.Grace)
	for {
		if c.closed.Load() || rs.off.Load() {
			return fmt.Errorf("remote: session closed")
		}
		if c.tr.Load() != failed {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("remote: reconnect grace window (%v) expired", rs.cfg.Grace)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Reattach is the coordinator's half of session resume: verify the
// token, answer with our received-frame count, install nc as the
// session's transport, and replay every un-confirmed ring frame. It
// returns the number of frames replayed. On error the caller should
// refuse the peer (RefuseResume) — the session itself stays in
// whatever state it was.
func (c *Conn) Reattach(nc net.Conn, token, peerRcvd uint64) (int, error) {
	rs := c.res.Load()
	if rs == nil || rs.off.Load() || c.closed.Load() {
		return 0, errors.New("session retired")
	}
	if token != rs.cfg.Token {
		return 0, errors.New("session token mismatch")
	}
	tr := newTransport(nc)
	// Unblock any writer wedged mid-write on the dead transport before
	// taking the write lock it holds.
	c.tr.Load().c.Close()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if peerRcvd < rs.ringLo || peerRcvd > rs.sent {
		return 0, fmt.Errorf("resume window exceeded: peer received %d, ring covers [%d,%d]", peerRcvd, rs.ringLo, rs.sent)
	}
	welcome := []byte{byte(MsgWelcome)}
	welcome = AppendUvarint(welcome, Proto)
	welcome = AppendUvarint(welcome, rs.rcvd.Load())
	nc.SetWriteDeadline(time.Now().Add(resumeHandshakeTimeout))
	if err := writeRawFrame(tr, welcome); err != nil {
		return 0, err
	}
	nc.SetWriteDeadline(time.Time{})
	c.tr.Store(tr)
	n, err := rs.replayLocked(c, tr, peerRcvd)
	if err != nil {
		return n, err
	}
	rs.reconnects.Add(1)
	return n, nil
}

// RefuseResume answers a resume hello that cannot be honored: a raw
// MsgError frame with the reason, then close. The worker treats it as
// permanent and stops redialing.
func RefuseResume(nc net.Conn, reason string) {
	tr := newTransport(nc)
	buf := []byte{byte(MsgError)}
	buf = AppendUvarint(buf, 0)
	buf = AppendString(buf, reason)
	nc.SetWriteDeadline(time.Now().Add(resumeHandshakeTimeout))
	writeRawFrame(tr, buf)
	nc.Close()
}

// writeRawFrame writes one frame on tr outside the Conn's counting and
// fault machinery — handshake traffic only.
func writeRawFrame(tr *transport, payload []byte) error {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := tr.bw.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := tr.bw.Write(payload); err != nil {
		return err
	}
	return tr.bw.Flush()
}

// readRawFrame reads one frame from tr outside the Conn's counting and
// fault machinery — handshake traffic only.
func readRawFrame(tr *transport) ([]byte, error) {
	n, err := binary.ReadUvarint(tr.br)
	if err != nil {
		return nil, err
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
	return payload, nil
}

// Backoff returns the delay before retry number attempt (0-based):
// base doubling per attempt, capped at max, with deterministic ±25%
// jitter derived from seed so seeded chaos runs replay exactly.
func Backoff(attempt int, base, max time.Duration, seed uint64) time.Duration {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	quarter := int64(d / 4)
	if quarter > 0 {
		h := mix64(seed + uint64(attempt)*0x9e3779b97f4a7c15)
		d += time.Duration(int64(h%uint64(2*quarter)) - quarter)
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}
