package remote

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"strings"
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

// TestLargeFrameRoundTrip sends a frame of a few frameChunks, which
// ReadFrame reads into a buffer that doubles as the payload arrives,
// and checks every byte of it.
func TestLargeFrameRoundTrip(t *testing.T) {
	a, b := pipePair(t)
	want := make([]byte, 3*frameChunk+5)
	for i := range want {
		want[i] = byte(i * 7)
	}
	go func() {
		if err := a.WriteFrame(want); err != nil {
			t.Error(err)
		}
	}()
	got, err := b.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %d bytes, not the %d-byte frame written", len(got), len(want))
	}
}

// TestForgedFrameLengthAllocatesLittle reads a frame whose prefix
// declares maxFrame bytes from a stream that holds three: the read
// fails, having allocated about frameChunk, not the gigabyte the prefix
// claims.
func TestForgedFrameLengthAllocatesLittle(t *testing.T) {
	stream := append(binary.AppendUvarint(nil, maxFrame), "abc"...)
	c := NewConn(readerConn{r: bytes.NewReader(stream)})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.ReadFrame()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("read a frame the stream does not hold")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*frameChunk {
		t.Fatalf("a %d-byte claim on a 3-byte payload allocated %d bytes", uint64(maxFrame), got)
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
		if err := AwaitHello(b); err != nil {
			errc <- err
			return
		}
		errc <- Welcome(b, 2, 5, 250*time.Millisecond)
	}()
	if err := Hello(a); err != nil {
		t.Fatal(err)
	}
	info, err := AwaitWelcome(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if want := (WelcomeInfo{WorkerID: 2, NumWorkers: 5, HeartbeatEvery: 250 * time.Millisecond}); info != want {
		t.Fatalf("welcome decoded as %+v, want %+v", info, want)
	}
}

// TestBackoffDeterministicBounds pins the startup dial's retry schedule:
// same (attempt, seed) always draws the same delay, every delay stays
// within +-25% of the capped doubling curve, and the floor is 1ms even
// for degenerate inputs.
func TestBackoffDeterministicBounds(t *testing.T) {
	const base, max = 50 * time.Millisecond, time.Second
	for seed := uint64(1); seed <= 5; seed++ {
		for a := 0; a < 12; a++ {
			d := Backoff(a, base, max, seed)
			if d2 := Backoff(a, base, max, seed); d2 != d {
				t.Fatalf("attempt %d seed %d: nondeterministic backoff %v vs %v", a, seed, d, d2)
			}
			ideal := base
			for i := 0; i < a && ideal < max; i++ {
				ideal *= 2
			}
			if ideal > max {
				ideal = max
			}
			if lo, hi := ideal-ideal/4, ideal+ideal/4; d < lo || d > hi {
				t.Fatalf("attempt %d seed %d: backoff %v outside [%v, %v]", a, seed, d, lo, hi)
			}
		}
	}
	if d := Backoff(0, -1, -1, 9); d < time.Millisecond {
		t.Fatalf("degenerate inputs broke the 1ms floor: %v", d)
	}
	if d := Backoff(40, base, max, 3); d > max+max/4 {
		t.Fatalf("deep attempt escaped the cap: %v", d)
	}
}

// proto18Hello is a hello as a Proto 18 worker wrote it: the version,
// then the capability byte with both resume flags set, and the resume
// form's worker id, session token and received-frame count.
func proto18Hello() []byte {
	hello := AppendUvarint([]byte{byte(MsgHello)}, 18)
	hello = append(hello, 0x03)
	for _, v := range []uint64{1, 0xfeedbeef, 40} {
		hello = AppendUvarint(hello, v)
	}
	return hello
}

// FuzzHello feeds parseHello — the coordinator's decoder of a worker's
// opening frame — arbitrary bytes. The contract: an error, or exactly
// the bytes Hello writes; never a panic. Seeds: the hello, every
// truncation of it, the hello with a byte trailing, a Proto 19 hello
// and a Proto 18 hello with the resume flags (checked-in corpus:
// testdata/fuzz/FuzzHello).
func FuzzHello(f *testing.F) {
	good := helloFrame()
	for cut := range len(good) {
		f.Add(good[:cut])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if parseHello(payload) == nil && !bytes.Equal(payload, helloFrame()) {
			t.Fatalf("accepted hello %x, which Hello never writes (%x)", payload, helloFrame())
		}
	})
}

// FuzzWelcome feeds parseWelcome — the worker's decoder of the
// coordinator's reply — arbitrary bytes. The contract: an error, or a
// welcome naming a worker inside its cluster that re-encodes to the same
// bytes; never a panic. Seeds: welcomes with and without heartbeats,
// every truncation of one, one with a byte trailing, a Proto 19 welcome
// and a Proto 18 welcome with its session token and resume byte
// (checked-in corpus: testdata/fuzz/FuzzWelcome).
func FuzzWelcome(f *testing.F) {
	good := welcomeFrame(WelcomeInfo{WorkerID: 1, NumWorkers: 2, HeartbeatEvery: 500 * time.Millisecond})
	for cut := range len(good) {
		f.Add(good[:cut])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		info, err := parseWelcome(payload)
		if err != nil {
			return
		}
		if info.WorkerID < 0 || info.WorkerID >= info.NumWorkers || info.HeartbeatEvery < 0 {
			t.Fatalf("accepted %x as %+v", payload, info)
		}
		if back := welcomeFrame(info); !bytes.Equal(back, payload) {
			t.Fatalf("welcome decoded as %+v but encodes differently:\n in  %x\n out %x", info, payload, back)
		}
	})
}

// TestHandshakeRefusals: a hello or welcome of another version is
// refused with both versions named, and one with a byte trailing, a
// worker outside its cluster or a padded varint is refused as malformed.
func TestHandshakeRefusals(t *testing.T) {
	welcome := welcomeFrame(WelcomeInfo{WorkerID: 1, NumWorkers: 2})
	proto18Welcome := AppendUvarint([]byte{byte(MsgWelcome)}, 18)
	for _, v := range []uint64{1, 2, 0, 0xfeedbeef} {
		proto18Welcome = AppendUvarint(proto18Welcome, v)
	}
	proto18Welcome = append(proto18Welcome, 1)
	for _, tc := range []struct {
		name    string
		payload []byte
		hello   bool
		want    string
	}{
		{"proto 18 hello", proto18Hello(), true, "worker speaks 18, coordinator 20"},
		{"proto 19 hello", AppendUvarint([]byte{byte(MsgHello)}, 19), true, "worker speaks 19, coordinator 20"},
		{"hello with a trailing byte", append(helloFrame(), 0), true, "1 trailing bytes"},
		{"welcome as hello", welcome, true, "expected hello"},
		{"proto 18 welcome", proto18Welcome, false, "coordinator speaks 18, worker 20"},
		{"welcome with a trailing byte", append(welcome, 0), false, "1 trailing bytes"},
		{"worker outside its cluster", welcomeFrame(WelcomeInfo{WorkerID: 2, NumWorkers: 2}), false, "worker 2 of 2"},
		{"padded worker id", append(append(welcome[:2:2], 0x81, 0x00), welcome[3:]...), false, "malformed welcome"},
	} {
		var err error
		if tc.hello {
			err = parseHello(tc.payload)
		} else {
			_, err = parseWelcome(tc.payload)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
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

// readerConn is a net.Conn whose reads come from r: ReadFrame uses
// nothing else of it.
type readerConn struct {
	net.Conn
	r io.Reader
}

func (c readerConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// FuzzReadFrame feeds Conn.ReadFrame an arbitrary byte stream and reads
// frames until the first error. The contract: never a panic, and every
// frame it returns is exactly the payload its length prefix declares —
// non-empty, at most maxFrame, the very bytes that follow the prefix.
// Seeds: two well-formed frames, a length one past maxFrame, an
// overlong 10-byte uvarint, a zero-length frame, a truncated payload and
// a clean EOF (checked-in corpus: testdata/fuzz/FuzzReadFrame).
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		c := NewConn(readerConn{r: bytes.NewReader(stream)})
		rest := stream
		for {
			payload, err := c.ReadFrame()
			if err != nil {
				return
			}
			n, m := binary.Uvarint(rest)
			if m <= 0 || n == 0 || n > maxFrame || uint64(len(rest)-m) < n {
				t.Fatalf("read a %d-byte frame from %x, whose prefix does not declare it", len(payload), rest)
			}
			if want := rest[m : m+int(n)]; !bytes.Equal(payload, want) {
				t.Fatalf("read frame %x, the stream holds %x", payload, want)
			}
			rest = rest[m+int(n):]
		}
	})
}
