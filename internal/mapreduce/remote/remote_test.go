package remote

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// pipePair returns two framed endpoints of an in-memory connection.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := pipePair(t)
	payloads := [][]byte{
		{byte(MsgFlush)},
		append([]byte{byte(MsgBucket)}, make([]byte, 100_000)...),
		AppendString([]byte{byte(MsgError)}, "boom"),
	}
	go func() {
		for _, p := range payloads {
			if err := a.WriteFrame(p); err != nil {
				t.Error(err)
				return
			}
		}
		a.Close()
	}()
	for i, want := range payloads {
		got, err := b.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(got) != len(want) || got[0] != want[0] {
			t.Fatalf("frame %d: got %d bytes type %v, want %d bytes type %v",
				i, len(got), MsgType(got[0]), len(want), MsgType(want[0]))
		}
	}
	if _, err := b.ReadFrame(); err != io.EOF {
		t.Fatalf("after close: got %v, want io.EOF", err)
	}
	if a.BytesOut() == 0 || a.BytesOut() != b.BytesIn() {
		t.Fatalf("byte counters disagree: out=%d in=%d", a.BytesOut(), b.BytesIn())
	}
}

func TestConcurrentWritersDoNotInterleave(t *testing.T) {
	a, b := pipePair(t)
	const writers, frames = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each writer sends frames filled with its own id; any
			// interleaving inside a frame corrupts the fill.
			body := make([]byte, 1+337)
			body[0] = byte(MsgBucket)
			for i := range body[1:] {
				body[1+i] = byte(w)
			}
			for i := 0; i < frames; i++ {
				if err := a.WriteFrame(body); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		a.Close()
		close(done)
	}()
	n := 0
	for {
		p, err := b.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		w := p[1]
		for _, by := range p[1:] {
			if by != w {
				t.Fatalf("interleaved frame: fill %d contains %d", w, by)
			}
		}
		n++
	}
	<-done
	if n != writers*frames {
		t.Fatalf("read %d frames, want %d", n, writers*frames)
	}
}

func TestHandshake(t *testing.T) {
	a, b := pipePair(t) // a: worker side, b: coordinator side
	errc := make(chan error, 1)
	go func() {
		hi, err := AwaitHello(b)
		if err != nil {
			errc <- err
			return
		}
		if !hi.ResumeCapable || hi.Resume {
			errc <- fmt.Errorf("hello decoded as capable=%v resume=%v, want capable, not resuming", hi.ResumeCapable, hi.Resume)
			return
		}
		errc <- Welcome(b, 2, 5, 250*time.Millisecond, 42, false)
	}()
	if err := Hello(a, true); err != nil {
		t.Fatal(err)
	}
	info, err := AwaitWelcome(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if info.WorkerID != 2 || info.NumWorkers != 5 {
		t.Fatalf("welcome decoded as worker %d of %d, want 2 of 5", info.WorkerID, info.NumWorkers)
	}
	if info.HeartbeatEvery != 250*time.Millisecond {
		t.Fatalf("welcome decoded heartbeat %v, want 250ms", info.HeartbeatEvery)
	}
}

func TestFaultStallBlocksBothDirectionsUntilClose(t *testing.T) {
	a, b := pipePair(t)
	f := &Fault{Op: FaultStall, AfterWrites: 2}
	a.Arm(f)
	go b.ReadFrame() // drain so the synchronous pipe write completes
	if err := a.WriteFrame([]byte{byte(MsgFlush)}); err != nil {
		t.Fatal(err)
	}
	// The second write trips the stall: it must block, not error, and
	// the read direction plus the pulse path must freeze too.
	results := make(chan error, 3)
	go func() { results <- a.WriteFrame([]byte{byte(MsgFlush)}) }()
	go func() { _, err := a.ReadFrame(); results <- err }()
	go func() { results <- a.WritePulse([]byte{byte(MsgPong)}) }()
	select {
	case err := <-results:
		t.Fatalf("stalled frame completed: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	a.Close()
	for i := 0; i < 3; i++ {
		select {
		case err := <-results:
			if err == nil {
				t.Fatal("stalled frame reported success after close")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("stalled goroutine did not release on close")
		}
	}
}

func TestFaultDelayRepeatFiresEveryFrame(t *testing.T) {
	a, b := pipePair(t)
	f := &Fault{Op: FaultDelay, AfterWrites: 1, Delay: 20 * time.Millisecond, Repeat: true}
	a.Arm(f)
	done := make(chan struct{})
	go func() {
		for i := 0; i < 3; i++ {
			b.ReadFrame()
		}
		close(done)
	}()
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := a.WriteFrame([]byte{byte(MsgFlush)}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("3 delayed frames took %v, want >= 60ms", d)
	}
}

func TestCursorLatchesErrors(t *testing.T) {
	cur := NewCursor([]byte{0x05}) // claims a 5-byte field with no bytes
	if b := cur.Bytes(); b != nil {
		t.Fatalf("truncated field returned %v", b)
	}
	if cur.Err() == nil {
		t.Fatal("cursor did not latch the truncation")
	}
	if v := cur.Uvarint(); v != 0 {
		t.Fatalf("post-error read returned %d", v)
	}
}

func TestOwnerCoversAllWorkers(t *testing.T) {
	seen := map[int]bool{}
	for p := 0; p < 12; p++ {
		w := Owner(p, 3)
		if w < 0 || w >= 3 {
			t.Fatalf("partition %d assigned to worker %d of 3", p, w)
		}
		seen[w] = true
	}
	if len(seen) != 3 {
		t.Fatalf("round-robin left workers idle: %v", seen)
	}
}
