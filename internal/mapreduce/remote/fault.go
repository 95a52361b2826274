// Deterministic fault injection for the framed transport. A Fault is
// armed on one Conn endpoint and counts the frames that endpoint moves
// in a single direction; when the count reaches the trigger it severs
// the connection (simulating a worker death observed mid-stream),
// stalls the frame (simulating a network hiccup or a hung process), or
// delays it. Counting one direction only keeps the trigger
// deterministic: reads and writes interleave differently run to run,
// but the k-th frame written to a given peer is always the same frame
// for a fixed job and seed. Heartbeat pongs are exempt in both
// directions (they travel via WritePulse and are skipped by ReadFrame's
// post-read charge), so arming heartbeats does not shift fault points.
package remote

import (
	"fmt"
	"sync/atomic"
	"time"
)

// FaultOp selects what an armed Fault does when it triggers.
type FaultOp int

const (
	// FaultSever closes the connection, so both the blocked reader and
	// every later writer observe a transport error — exactly what a
	// SIGKILLed worker process produces, without the process.
	FaultSever FaultOp = iota
	// FaultDelay stalls the triggering frame for Delay and then lets
	// traffic continue; it exercises the slow-worker paths (reply
	// deadlines, a heartbeat monitor that must not condemn a
	// responsive worker) without killing anyone. With Repeat set it fires on the triggering frame and
	// every later one — a worker that is uniformly slow rather than
	// hiccuping once.
	FaultDelay
	// FaultStall is the gray failure: from the triggering frame on, the
	// endpoint stops moving frames in *both* directions without closing
	// the connection — the peer sees an open, silent socket, which no
	// transport error will ever report. Blocked goroutines release with
	// an error when the local endpoint is closed, or silently resume
	// after Delay if Delay is nonzero (a stall that heals).
	FaultStall
	// FaultCut severs the connection *mid-frame*: the triggering write
	// ships the frame's real length prefix and the first CutBytes
	// payload bytes, then cuts — the peer reads a frame that dies
	// partway through its payload, the torn-segment shape a network cut
	// between two TCP segments produces. Write-direction only.
	FaultCut
)

// Fault is one armed failure. AfterWrites and AfterReads are 1-based
// frame triggers for their direction: AfterWrites = k fires in place of
// the k-th WriteFrame on the armed endpoint, AfterReads = k in place of
// the k-th ReadFrame. Zero leaves a direction unarmed. A Fault fires at
// most once (a severed connection keeps failing on its own afterwards;
// a stalled one keeps holding frames), except FaultDelay with Repeat,
// which delays every frame from the trigger on.
type Fault struct {
	Op          FaultOp
	AfterWrites int
	AfterReads  int
	Delay       time.Duration
	Repeat      bool
	// CutBytes is how many payload bytes a FaultCut ships before
	// severing (clamped to the triggering frame's length).
	CutBytes int

	writes  atomic.Int64
	reads   atomic.Int64
	fired   atomic.Bool
	stalled atomic.Bool
}

// errSevered is what the armed endpoint reports once a FaultSever has
// triggered; later frames on the closed connection fail with ordinary
// transport errors from the socket.
var errSevered = fmt.Errorf("remote: injected fault severed the connection")

// errStalled is what a goroutine blocked on an injected stall reports
// once the local endpoint is closed out from under it.
var errStalled = fmt.Errorf("remote: injected stall released by close")

// errCutFrame is fire's signal back to the write path that a FaultCut
// triggered: the writer ships the partial frame and severs itself.
var errCutFrame = fmt.Errorf("remote: injected fault cut the frame")

func (f *Fault) beforeWrite(c *Conn) error {
	if f.stalled.Load() {
		return f.hold(c)
	}
	if f.AfterWrites <= 0 {
		return nil
	}
	if f.writes.Add(1) < int64(f.AfterWrites) {
		return nil
	}
	return f.fire(c)
}

func (f *Fault) beforeRead(c *Conn) error {
	if f.stalled.Load() {
		return f.hold(c)
	}
	if f.AfterReads <= 0 {
		return nil
	}
	if f.reads.Add(1) < int64(f.AfterReads) {
		return nil
	}
	return f.fire(c)
}

// holdIfStalled is the pulse-path check: heartbeat writes are exempt
// from frame counting but must still freeze once a stall has fired —
// a hung worker that kept heartbeating would never look hung.
func (f *Fault) holdIfStalled(c *Conn) error {
	if f.stalled.Load() {
		return f.hold(c)
	}
	return nil
}

func (f *Fault) fire(c *Conn) error {
	if f.Op == FaultDelay {
		if f.Repeat || f.fired.CompareAndSwap(false, true) {
			time.Sleep(f.Delay)
		}
		return nil
	}
	if !f.fired.CompareAndSwap(false, true) {
		if f.Op == FaultStall {
			return f.hold(c)
		}
		// Already fired: a severed socket keeps failing on its own, so
		// there is nothing to add.
		return nil
	}
	switch f.Op {
	case FaultStall:
		f.stalled.Store(true)
		return f.hold(c)
	case FaultCut:
		return errCutFrame
	default:
		c.Close()
		return errSevered
	}
}

// hold blocks the calling goroutine for as long as the stall is in
// effect: until the local Conn is closed (error) or, when Delay is
// nonzero, until Delay has elapsed since the hold began (the stall
// heals and the frame proceeds).
func (f *Fault) hold(c *Conn) error {
	var deadline time.Time
	if f.Delay > 0 {
		deadline = time.Now().Add(f.Delay)
	}
	for {
		if c.Closed() {
			return errStalled
		}
		if !f.stalled.Load() {
			return nil
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			f.stalled.Store(false)
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Arm installs a fault on this endpoint. Passing nil disarms. Test
// instrumentation only — nothing in the production paths arms faults.
func (c *Conn) Arm(f *Fault) { c.fault.Store(f) }

// FaultPoint derives a deterministic frame index in [lo, hi) from a
// seed (SplitMix64 finalizer), so a fault matrix keyed by seed
// reproduces the exact same failure point on every run and every
// machine.
func FaultPoint(seed int64, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	x := mix64(uint64(seed))
	return lo + int(x%uint64(hi-lo))
}

// mix64 is the SplitMix64 finalizer: the deterministic hash behind
// both fault points and the startup dial's backoff jitter.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
