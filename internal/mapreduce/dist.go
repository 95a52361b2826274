package mapreduce

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os/exec"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapreduce/remote"
)

// This file is the coordinator half of the distributed execution mode
// (ShuffleDist): reduce partitions are sharded across worker processes
// connected over the length-prefixed TCP transport of
// internal/mapreduce/remote. The coordinator runs the map phase (or, for
// chained jobs whose input already resides on the workers, only
// orchestrates it), streams pre-partitioned buckets to the partitions'
// owners, and the workers group-sort and reduce their partitions locally
// with the same radix path and buffer pool the in-memory backend uses —
// which is what makes the output bit-identical to ShuffleMemory for the
// same seed and partition count. Reduce output stays worker-resident,
// so the next chained job's self-addressed pairs never cross the wire —
// and a state job's input records (RunStateDS) are not even shuffled:
// the worker that maps a partition joins it with the partition's groups;
// a caller that wants the records (Run, Materialize) fetches them. The
// worker half lives in distworker.go; workers run the reduce (and, when
// chained, map) functions registered under the job's name via
// RegisterDistJob — the function values themselves never travel.

// DistCluster is a set of connected worker processes, shared by every
// job of a computation (Config.Dist). Reduce partitions start out owned
// round-robin (partition p belongs to worker p mod N); each job carries
// its own partition→worker assignment in the job header, so when a
// worker dies its partitions are re-assigned to the survivors (or to a
// late-joining replacement) while every surviving partition stays put.
// A cluster is single-computation: jobs run one at a time. Worker death
// latches the *round*, not the cluster — the in-flight job is aborted
// on the survivors and retried with restored input (see the recovery
// protocol on distJobRun). Only non-transport failures (a user function
// erroring, a malformed frame, context cancellation) break the cluster,
// and later jobs then fail fast rather than running on a cluster in an
// unknown state.
type DistCluster struct {
	conns []*remote.Conn
	procs []*exec.Cmd

	mu     sync.Mutex
	seq    uint64
	broken error
	closed bool
	// lastIn/lastOut checkpoint the transport counters at the previous
	// job's end, so a job's RemoteBytes* delta also covers the
	// inter-job traffic that belongs to it in spirit — most importantly
	// the Materialize fetch of the previous job's resident output.
	lastIn  int64
	lastOut int64
	// dead marks connections whose workers were lost (transport error
	// or kill). A dead slot keeps its index — partition assignments name
	// workers by index — but is skipped by every frame loop.
	dead     []bool
	sawDeath bool
	// owners maps a partition count to the sticky assignment array for
	// that geometry. Only a dead worker's partitions ever move (to the
	// live workers, round-robin in partition order), so data resident on
	// survivors is never reassigned away from them.
	owners map[int][]int
	// residency tracks every worker-resident job output: where each
	// partition currently lives and, when the job was checkpointed, the
	// coordinator's mirror of its partition images (fed by MsgCkpt
	// frames at the flush barrier). The mirror is what recovery re-seeds
	// lost partitions from.
	residency map[uint64]*distMirror
	// retained counts jobs whose output stayed worker-resident, for the
	// Config.CheckpointEvery throttle.
	retained uint64
	// late holds replacement workers accepted after startup
	// (DistClusterOptions.AcceptLate); recovery adopts them into conns.
	late []*remote.Conn
	ln   net.Listener
	// acceptFresh gates fresh late joins on the shared accept loop; the
	// loop also runs with AcceptLate off when ReconnectGrace keeps the
	// listener open for session re-attachment only.
	acceptFresh bool
	// reconnectGrace > 0 enables session resume on every worker
	// connection: a worker whose transport dies may redial and re-attach
	// within the grace window, replaying un-acked frames, instead of
	// being declared dead and reseeded around.
	reconnectGrace time.Duration
	// journal, when non-nil, persists the coordinator's run state for
	// crash-resume (see journal.go).
	journal  *distJournal
	closeErr error

	// Health-monitor configuration (resolved from DistClusterOptions at
	// startup); activeJob/hbFloor are what the monitor goroutine watches.
	hbEvery      time.Duration
	drainTimeout time.Duration
	abortTimeout time.Duration
	activeJob    distActiveJob
	hbFloor      time.Time
	monitorStop  chan struct{}
	monitorWG    sync.WaitGroup

	recoveries   atomic.Int64
	reseeded     atomic.Int64
	hbTimeouts   atomic.Int64
	jobsReplayed atomic.Int64
}

// distActiveJob is the monitor's view of the job in flight — the
// untyped face of distJobRun, registered by startDistJob and cleared
// when finish returns.
type distActiveJob interface {
	// waitsOn reports whether the attempt still waits on worker w: w
	// received the announce and has not delivered its MsgJobDone.
	waitsOn(w int) bool
	lost(w int, cause error)
}

// Partition locations that name no worker. Both are seeded from the
// mirror (or rebuilt from the recipe) by ensureResident; only the second
// is a recovery.
const (
	// locNowhere: never placed on a worker yet — a journal-restored
	// output on a resumed coordinator, or a state job's input the
	// coordinator placed (placeResident).
	locNowhere = -1
	// locConsumed: shed from every worker after an aborted attempt's
	// reduce phase had started on it (see consumeResident).
	locConsumed = -2
)

// distMirror is the residency record of one retained job output, or of
// a Dataset BuildDS built on the workers.
type distMirror struct {
	loc    []int   // current owner of each partition, or a loc* sentinel
	counts []int64 // pairs per partition (from the job or build reports)
	// blobs are the checkpointed partition images (canonical encodePairs
	// bytes); nil when the job ran with checkpointing throttled off, in
	// which case a lost partition is unrecoverable.
	blobs [][]byte
	// recipe, set for a built Dataset instead of blobs, rebuilds any of
	// its partitions on any worker.
	recipe *distBuild
}

// restorable reports whether partition p can be put on a worker again
// without its current copy: rebuilt from the recipe, or seeded from a
// mirror blob (an empty partition needs none).
func (m *distMirror) restorable(p int) bool {
	return m.recipe != nil || m.blobs != nil && (m.blobs[p] != nil || m.counts[p] == 0)
}

// seedFrame is the frame that puts partition p of job seq's output on a
// worker: the recipe's build frame, or a seed carrying the mirror blob.
func (m *distMirror) seedFrame(seq uint64, p int) []byte {
	if m.recipe != nil {
		return m.recipe.frame(seq, p)
	}
	frame := []byte{byte(remote.MsgSeed)}
	frame = remote.AppendUvarint(frame, seq)
	frame = remote.AppendUvarint(frame, uint64(p))
	frame = remote.AppendUvarint(frame, uint64(m.counts[p]))
	return append(frame, m.blobs[p]...)
}

// WorkerLostError reports that a dist worker died. The engine retries
// the in-flight job internally after a loss, so this error escapes a
// Run/RunDS call only when recovery is impossible: no live workers
// remain, the retry budget is exhausted, or a job's worker-resident
// input was lost without a checkpoint to restore it from.
// mapreduce.Loop treats an escaped WorkerLostError as replayable when
// the loop state itself is restorable (see Loop).
type WorkerLostError struct {
	// Worker is the index of the lost worker (-1 when the loss is
	// positional, e.g. "no live workers").
	Worker int
	// Job names the job that was in flight, if any.
	Job string
	// Err is the underlying transport or recovery failure.
	Err error
}

func (e *WorkerLostError) Error() string {
	who := "dist worker"
	if e.Worker >= 0 {
		who = fmt.Sprintf("dist worker %d", e.Worker)
	}
	if e.Job != "" {
		return fmt.Sprintf("mapreduce: job %q: %s lost: %v", e.Job, who, e.Err)
	}
	return fmt.Sprintf("mapreduce: %s lost: %v", who, e.Err)
}

func (e *WorkerLostError) Unwrap() error { return e.Err }

func isWorkerLost(err error) bool {
	var wl *WorkerLostError
	return errors.As(err, &wl)
}

// DistClusterOptions configures StartDistCluster.
type DistClusterOptions struct {
	// Listen is the coordinator's listen address (default "127.0.0.1:0",
	// an ephemeral loopback port). Use a routable address to accept
	// workers from other machines.
	Listen string
	// Spawn, when non-nil, is invoked once per worker with the
	// coordinator's listen address and must return a ready-to-start
	// command for a worker that will connect there (the self-exec
	// pattern: a CLI re-executes its own binary in worker mode). When
	// nil the coordinator only waits for externally launched workers.
	Spawn func(addr string) *exec.Cmd
	// Timeout bounds the wait for all workers to connect (default 60s).
	Timeout time.Duration
	// OnListen, when non-nil, is called with the coordinator's listen
	// address once it is accepting, before any worker connects — the
	// hook in-process workers (tests, embedded deployments) use to dial
	// in from goroutines of the same process.
	OnListen func(addr string)
	// AcceptLate keeps the coordinator's listener open after the initial
	// n workers connect, so replacement workers can join a running
	// cluster with -dist-connect. They are adopted at the next job
	// boundary and pick up partitions when a worker dies. Off by default
	// (the listener closes once startup completes).
	AcceptLate bool
	// HeartbeatEvery is the health cadence: workers send a heartbeat
	// every interval and the coordinator's monitor ticks at the same
	// rate. A worker the running job waits on that stays silent for
	// hbDeadIntervals intervals is declared lost. Zero means the 500ms
	// default; negative disables health monitoring entirely (no pongs,
	// no monitor).
	HeartbeatEvery time.Duration
	// DrainTimeout bounds the read for a parting MsgError after a write
	// to a worker fails (default 500ms).
	DrainTimeout time.Duration
	// AbortTimeout bounds recovery waits — abort acknowledgements,
	// resident-partition fetches from a possibly-hung worker, late-join
	// handshakes (default 30s).
	AbortTimeout time.Duration
	// ReconnectGrace, when positive, enables session resume on every
	// worker connection: frames are sequence-numbered and ringed, and a
	// worker whose transport errors may redial and re-attach by worker
	// id + session token within the grace window — both sides replay
	// un-acked frames and the run continues, with no abort, no reseed.
	// Only past the grace does the loss escalate to the usual
	// death/recovery path. Keeps the listener open for re-attachment
	// even without AcceptLate. Zero disables (the default).
	ReconnectGrace time.Duration
	// JournalDir, when set, persists the coordinator's run state — every
	// job result and round-boundary commit records — to an append-only
	// journal in that directory, so a crashed coordinator can be
	// restarted with Resume and replay the run from the last committed
	// round (see journal.go).
	JournalDir string
	// Resume makes StartDistCluster load JournalDir's committed history
	// before running: the restarted pipeline re-executes
	// deterministically, satisfying already-journaled jobs from the
	// journal (resident outputs are re-seeded onto the new workers from
	// the journaled mirror) and running live from the first uncommitted
	// job on.
	Resume bool
	// JournalCrashAfter, when positive, SIGKILLs the coordinator process
	// after that many journal records have been appended — the
	// deterministic crash hook the resume chaos suite drives. Test
	// instrumentation only.
	JournalCrashAfter int
}

// StartDistCluster listens for n workers, optionally spawning them via
// opts.Spawn, completes the handshake with each, and returns the
// connected cluster. The caller owns the cluster and must Close it.
func StartDistCluster(n int, opts DistClusterOptions) (*DistCluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("mapreduce: dist cluster needs >= 1 worker, got %d", n)
	}
	addr := opts.Listen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	if opts.Resume && opts.JournalDir == "" {
		return nil, errors.New("mapreduce: dist resume needs a journal directory to resume from (DistClusterOptions.JournalDir, -dist-journal-dir)")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: dist listen: %w", err)
	}

	cl := &DistCluster{
		hbEvery:        opts.HeartbeatEvery,
		drainTimeout:   opts.DrainTimeout,
		abortTimeout:   opts.AbortTimeout,
		reconnectGrace: opts.ReconnectGrace,
		acceptFresh:    opts.AcceptLate,
	}
	if opts.JournalDir != "" {
		j, err := openDistJournal(opts.JournalDir, opts.Resume, opts.JournalCrashAfter)
		if err != nil {
			ln.Close()
			return nil, err
		}
		cl.journal = j
	}
	if cl.hbEvery == 0 {
		cl.hbEvery = 500 * time.Millisecond
	}
	if cl.drainTimeout <= 0 {
		cl.drainTimeout = 500 * time.Millisecond
	}
	if cl.abortTimeout <= 0 {
		cl.abortTimeout = distAbortTimeout
	}
	if opts.OnListen != nil {
		opts.OnListen(ln.Addr().String())
	}
	if opts.Spawn != nil {
		for i := 0; i < n; i++ {
			cmd := opts.Spawn(ln.Addr().String())
			if err := cmd.Start(); err != nil {
				ln.Close()
				cl.abort()
				return nil, fmt.Errorf("mapreduce: spawning dist worker %d: %w", i, err)
			}
			cl.procs = append(cl.procs, cmd)
		}
	}
	deadline := time.Now().Add(timeout)
	for i := 0; i < n; i++ {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		nc, err := ln.Accept()
		if err != nil {
			ln.Close()
			cl.abort()
			return nil, fmt.Errorf("mapreduce: waiting for dist worker %d of %d: %w", i+1, n, err)
		}
		// The accept deadline does not cover the handshake: a spawned
		// worker that connects and then dies (or hangs) before sending
		// its hello would otherwise block this read forever. The same
		// overall deadline bounds it; cleared once the worker is in.
		nc.SetReadDeadline(deadline)
		conn := remote.NewConn(nc)
		hi, err := remote.AwaitHello(conn)
		if err != nil {
			conn.Close()
			ln.Close()
			cl.abort()
			return nil, fmt.Errorf("mapreduce: dist worker handshake: %w", err)
		}
		if hi.Resume {
			// A leftover worker from a previous coordinator incarnation
			// redialing into a fresh cluster: its session does not exist
			// here. Refuse it and keep waiting for worker i.
			remote.RefuseResume(nc, "unknown session")
			i--
			continue
		}
		resumeOn := cl.reconnectGrace > 0 && hi.ResumeCapable
		token := mintSessionToken()
		if err := remote.Welcome(conn, i, n, cl.hbEvery, token, resumeOn); err != nil {
			conn.Close()
			ln.Close()
			cl.abort()
			return nil, fmt.Errorf("mapreduce: dist worker handshake: %w", err)
		}
		if resumeOn {
			conn.EnableResume(remote.ResumeConfig{Token: token, WorkerID: i, Grace: cl.reconnectGrace})
		}
		nc.SetReadDeadline(time.Time{})
		cl.conns = append(cl.conns, conn)
	}
	if cl.hbEvery > 0 {
		cl.monitorStop = make(chan struct{})
		cl.monitorWG.Add(1)
		go cl.monitor()
	}
	if opts.AcceptLate || cl.reconnectGrace > 0 {
		// The listener stays open for late joiners and/or session
		// re-attachment; the shared accept loop routes by hello type.
		cl.ln = ln
		go cl.acceptLate(ln)
	} else {
		ln.Close()
	}
	return cl, nil
}

// mintSessionToken draws the random session token a resume hello must
// present to re-attach — what stops a stale worker from a previous run
// (or a same-id worker of another cluster on a recycled port) from
// splicing itself into a session it does not own.
func mintSessionToken() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Degraded randomness beats refusing to run: fall back to a
		// time-derived token.
		return uint64(time.Now().UnixNano())
	}
	return binary.LittleEndian.Uint64(b[:])
}

// acceptLate is the post-startup accept loop, serving two kinds of
// hello: fresh joins (replacement workers, admitted when AcceptLate is
// on — each gets the next worker index and recovery adopts it between
// job attempts) and resume hellos (a severed worker's redial,
// re-attached to its existing session in place). Exits when the
// listener closes.
func (cl *DistCluster) acceptLate(ln net.Listener) {
	for {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(time.Time{})
		}
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		nc.SetReadDeadline(time.Now().Add(cl.abortTimeout))
		conn := remote.NewConn(nc)
		hi, err := remote.AwaitHello(conn)
		if err != nil {
			conn.Close()
			continue
		}
		if hi.Resume {
			nc.SetReadDeadline(time.Time{})
			cl.reattachWorker(nc, hi)
			continue
		}
		if !cl.acceptFresh {
			conn.Close()
			continue
		}
		cl.mu.Lock()
		id := len(cl.conns) + len(cl.late)
		cl.mu.Unlock()
		resumeOn := cl.reconnectGrace > 0 && hi.ResumeCapable
		token := mintSessionToken()
		if err := remote.Welcome(conn, id, id+1, cl.hbEvery, token, resumeOn); err != nil {
			conn.Close()
			continue
		}
		if resumeOn {
			conn.EnableResume(remote.ResumeConfig{Token: token, WorkerID: id, Grace: cl.reconnectGrace})
		}
		nc.SetReadDeadline(time.Time{})
		cl.mu.Lock()
		if cl.closed || cl.broken != nil {
			cl.mu.Unlock()
			conn.Close()
			return
		}
		cl.late = append(cl.late, conn)
		cl.mu.Unlock()
	}
}

// reattachWorker routes a resume hello to the session it names: find
// the connection by worker id (adopted or still in the late set), and
// let its resume layer verify the token, swap the transport, and
// replay. A session that does not exist, is dead, or refuses the
// re-attach gets a refusal frame, which stops the worker's redialing.
func (cl *DistCluster) reattachWorker(nc net.Conn, hi remote.HelloInfo) {
	cl.mu.Lock()
	var target *remote.Conn
	switch {
	case hi.WorkerID < 0:
	case hi.WorkerID < len(cl.conns):
		if !cl.deadLocked(hi.WorkerID) {
			target = cl.conns[hi.WorkerID]
		}
	case hi.WorkerID-len(cl.conns) < len(cl.late):
		target = cl.late[hi.WorkerID-len(cl.conns)]
	}
	cl.mu.Unlock()
	if target == nil {
		remote.RefuseResume(nc, "unknown or retired session")
		return
	}
	if _, err := target.Reattach(nc, hi.Token, hi.Received); err != nil {
		remote.RefuseResume(nc, err.Error())
	}
}

// abort is the startup-failure teardown: spawned workers may still be
// mid-handshake (their connections are not in conns, so Close's Bye
// never reaches them and its Wait would block on them forever) — kill
// them before reaping.
func (cl *DistCluster) abort() {
	for _, c := range cl.conns {
		c.Close()
	}
	for _, cmd := range cl.procs {
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
	for _, cmd := range cl.procs {
		cmd.Wait()
	}
	cl.mu.Lock()
	cl.closed = true
	cl.mu.Unlock()
}

// Workers returns the number of connected workers.
func (cl *DistCluster) Workers() int { return len(cl.conns) }

// Err returns the error that broke the cluster, or nil while it is
// healthy.
func (cl *DistCluster) Err() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.broken
}

// fail latches the first fatal error and closes every connection, which
// unblocks any goroutine blocked on the transport.
func (cl *DistCluster) fail(err error) {
	cl.mu.Lock()
	already := cl.broken != nil
	if !already {
		cl.broken = err
	}
	cl.mu.Unlock()
	if !already {
		for _, c := range cl.conns {
			c.Close()
		}
	}
}

// nextSeq allocates a job sequence number (never zero, so zero can mean
// "no job" in message fields).
func (cl *DistCluster) nextSeq() uint64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.seq++
	return cl.seq
}

// distAbortTimeout bounds how long recovery waits for a survivor to
// acknowledge an abort before declaring it dead too. It doubles as the
// read-deadline backstop on the survivors' connections while an abort
// is in flight, so a wedged worker cannot block recovery forever.
const distAbortTimeout = 30 * time.Second

// isDead reports whether worker w has been lost.
func (cl *DistCluster) isDead(w int) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.deadLocked(w)
}

func (cl *DistCluster) deadLocked(w int) bool {
	// Negative indexes name no worker at all (journal-restored residency
	// uses -1 for "lives nowhere yet"); they are not dead, just absent.
	return w >= 0 && w < len(cl.dead) && cl.dead[w]
}

// markDead records worker w as lost and closes its connection, which
// unblocks any goroutine reading or writing it. Idempotent. It does not
// break the cluster — worker death is the recoverable failure mode.
func (cl *DistCluster) markDead(w int, cause error) {
	if cl.noteDead(w) {
		cl.conns[w].Close()
	}
}

// noteDead marks worker w dead without closing its connection, and
// reports whether this call made the transition. Write-failure paths
// use the window between marking and closing to drain a parting
// MsgError off the socket (drainFatal); everyone else goes through
// markDead.
func (cl *DistCluster) noteDead(w int) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if w < 0 || w >= len(cl.conns) || cl.deadLocked(w) {
		return false
	}
	if cl.dead == nil || len(cl.dead) < len(cl.conns) {
		dead := make([]bool, len(cl.conns))
		copy(dead, cl.dead)
		cl.dead = dead
	}
	cl.dead[w] = true
	cl.sawDeath = true
	return true
}

// liveWorkers snapshots the indexes of the workers currently alive.
func (cl *DistCluster) liveWorkers() []int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	var live []int
	for w := range cl.conns {
		if !cl.deadLocked(w) {
			live = append(live, w)
		}
	}
	return live
}

// drainFatal reads briefly from a worker whose connection just failed a
// write, looking for the MsgError it may have sent before going away: a
// deterministic user-function or registration failure must surface as
// itself, not as the transport error it caused. Only called from paths
// where no reader goroutine owns the connection (the job announce).
// Returns "" when the worker died silently — the recoverable case.
func (cl *DistCluster) drainFatal(w int) string {
	c := cl.conns[w]
	c.SetReadDeadline(time.Now().Add(cl.drainTimeout))
	defer c.SetReadDeadline(time.Time{})
	for i := 0; i < 16; {
		payload, err := c.ReadFrame()
		if err != nil {
			return ""
		}
		cur := remote.NewCursor(payload)
		switch remote.MsgType(cur.Byte()) {
		case remote.MsgPong:
			continue // heartbeats don't spend the frame budget
		case remote.MsgError:
			cur.Uvarint() // seq
			return cur.String()
		default:
			// Every other frame type is in-flight job traffic from a
			// connection we are about to drop: discard it, spending
			// the drain budget so a chatty worker cannot stall the
			// fatal path.
		}
		i++
	}
	return ""
}

// reassignLocked rewrites an assignment array so no partition names a
// dead worker: its partitions go round-robin, in partition order, over
// the live workers. Deterministic in the dead set, and a no-op for
// partitions whose owner is alive — a live worker's partitions never
// move, which is what lets recovery re-seed only what was actually
// lost.
func (cl *DistCluster) reassignLocked(owners []int) {
	var targets []int
	for w := range cl.conns {
		if !cl.deadLocked(w) {
			targets = append(targets, w)
		}
	}
	if len(targets) == 0 {
		return
	}
	k := 0
	for p, w := range owners {
		if cl.deadLocked(w) {
			owners[p] = targets[k%len(targets)]
			k++
		}
	}
}

// ownersFor returns a snapshot of the sticky partition assignment for
// the given partition count, creating it (p mod N, with any already-dead
// workers substituted) on first use. The returned slice is the caller's
// own copy: a concurrent death re-assigns the stored array, never a
// running job's view.
func (cl *DistCluster) ownersFor(parts int) []int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return append([]int(nil), cl.ownersForLocked(parts)...)
}

// ownersForLocked returns the stored (mutable) assignment array for the
// geometry, creating it on first use. Callers hold cl.mu.
func (cl *DistCluster) ownersForLocked(parts int) []int {
	if cl.owners == nil {
		cl.owners = make(map[int][]int)
	}
	o := cl.owners[parts]
	if o == nil {
		o = make([]int, parts)
		for p := range o {
			o[p] = remote.Owner(p, len(cl.conns))
		}
		cl.reassignLocked(o)
		cl.owners[parts] = o
	}
	return o
}

// recoverAssignments starts every job attempt: adopt any late-joined
// replacement workers, then rewrite every stored assignment so dead
// workers own nothing.
func (cl *DistCluster) recoverAssignments() {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.adoptLateLocked()
	for _, o := range cl.owners {
		cl.reassignLocked(o)
	}
}

// adoptLateLocked folds late-joined replacement workers into the
// cluster: each gets the next connection slot.
func (cl *DistCluster) adoptLateLocked() {
	for _, c := range cl.late {
		cl.conns = append(cl.conns, c)
		if cl.dead != nil {
			cl.dead = append(cl.dead, false)
		}
	}
	cl.late = nil
}

// retryAfterLoss reports whether a job lost to worker death should be
// retried: the cluster is otherwise healthy, at least one worker
// survives, and the retry budget (one per worker slot — each worker can
// die at most once) is not exhausted.
func (cl *DistCluster) retryAfterLoss(attempt int) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.broken != nil || cl.closed {
		return false
	}
	live := 0
	for w := range cl.conns {
		if !cl.deadLocked(w) {
			live++
		}
	}
	return live > 0 && attempt < len(cl.conns)
}

// registerResident records the residency of job or Dataset seq: its
// partition locations and counts and, when it has them, its checkpoint
// mirror or its recipe. m is the cluster's from here on.
func (cl *DistCluster) registerResident(seq uint64, m *distMirror) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.residency == nil {
		cl.residency = make(map[uint64]*distMirror)
	}
	cl.residency[seq] = m
}

// forgetResident drops the residency record (and mirror) of a consumed
// or recycled dataset.
func (cl *DistCluster) forgetResident(seq uint64) {
	cl.mu.Lock()
	delete(cl.residency, seq)
	cl.mu.Unlock()
}

// mirrorPart returns partition p's checkpointed image for job seq, if
// the coordinator holds one.
func (cl *DistCluster) mirrorPart(seq uint64, p int) ([]byte, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	m := cl.residency[seq]
	if m == nil || m.blobs == nil || p < 0 || p >= len(m.blobs) {
		return nil, false
	}
	return m.blobs[p], true
}

// ensureResident reconciles job seq's resident output against the
// current assignment before the job that consumes it is announced: any
// partition whose recorded owner is dead is re-seeded from the
// checkpoint mirror, or rebuilt from a built Dataset's recipe, onto the
// worker the assignment names (recovery). A partition that lives
// nowhere yet (locNowhere) is seeded the same way but not counted as
// reseeded. A partition on a live worker stays put: reassignLocked only
// moves a dead worker's partitions, so the assignment still names its
// owner. A no-op while the cluster is healthy. Returns the count of
// recovered partitions, or a WorkerLostError when a lost partition has
// no mirror to restore it from.
func (cl *DistCluster) ensureResident(seq uint64, name string) (int, error) {
	cl.mu.Lock()
	m := cl.residency[seq]
	if m == nil {
		cl.mu.Unlock()
		return 0, fmt.Errorf("mapreduce: dist job %q: input dataset %d is not resident on this cluster", name, seq)
	}
	owners := cl.ownersForLocked(len(m.loc))
	var seeds []move
	reseeded := 0
	for p, w := range m.loc {
		if w >= 0 && !cl.deadLocked(w) {
			continue
		}
		if !m.restorable(p) {
			cl.mu.Unlock()
			return 0, &WorkerLostError{Worker: w, Job: name,
				Err: fmt.Errorf("resident input partition %d was lost and the producing job was not checkpointed (Config.CheckpointEvery)", p)}
		}
		target := owners[p]
		if target == w {
			// Owner is dead and the assignment still names it — no live
			// worker existed to reassign to; the announce will fail with
			// "no live workers" before this matters.
			continue
		}
		seeds = append(seeds, move{w: target, frame: m.seedFrame(seq, p)})
		if w != locNowhere {
			reseeded++
		}
		m.loc[p] = target
	}
	cl.mu.Unlock()
	for _, s := range seeds {
		if err := cl.conns[s.w].WriteFrame(s.frame); err != nil {
			cl.markDead(s.w, err)
			return 0, &WorkerLostError{Worker: s.w, Job: name,
				Err: fmt.Errorf("re-seeding recovered partition: %w", err)}
		}
	}
	if reseeded > 0 {
		cl.reseeded.Add(int64(reseeded))
	}
	return reseeded, nil
}

// move is one seed or shed frame bound for worker w.
type move struct {
	w     int
	frame []byte
}

func shedFrame(seq uint64, part int) []byte {
	frame := remote.AppendUvarint([]byte{byte(remote.MsgShed)}, seq)
	return remote.AppendUvarint(frame, uint64(part))
}

// consumeResident enforces the contract that a chained attempt's reduce
// phase consumes its input: a reduce owns its values, and a
// self-addressed value never left the worker, so it aliases the resident
// input record (GreedyMR compacts adjacency lists in place). An attempt
// aborted after its flush therefore leaves every surviving copy
// suspect: each is shed and its partition marked locConsumed, so the
// retry re-seeds it from the mirror — and a partition without a mirror
// is lost, as Config.CheckpointEvery says of un-checkpointed resident
// data. Failure path only; a successful attempt's input is dropped by
// whoever holds it (Loop, Dataset.Recycle).
func (cl *DistCluster) consumeResident(seq uint64) {
	var sheds []move
	cl.mu.Lock()
	if m := cl.residency[seq]; m != nil {
		for p, w := range m.loc {
			if w >= 0 && !cl.deadLocked(w) {
				sheds = append(sheds, move{w: w, frame: shedFrame(seq, p)})
			}
			m.loc[p] = locConsumed
		}
	}
	cl.mu.Unlock()
	for _, s := range sheds {
		// Best effort: a worker that cannot be told takes its copy with
		// it.
		if err := cl.conns[s.w].WriteFrame(s.frame); err != nil {
			cl.markDead(s.w, err)
		}
	}
}

// residencySnapshot copies job seq's partition locations, for a fetch
// that must know which worker should stream each partition (a stale
// seed on a worker that lost the partition again must not shadow the
// current owner's copy). nil when the job has no residency record.
func (cl *DistCluster) residencySnapshot(seq uint64) []int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	m := cl.residency[seq]
	if m == nil {
		return nil
	}
	return append([]int(nil), m.loc...)
}

// canRestore reports whether job seq's resident output could still be
// reconstructed in full: the cluster is healthy with at least one live
// worker, and every partition either lives on a live worker or has a
// checkpoint mirror or a recipe. This is Loop's replay test — it decides
// whether re-running a round from its entry state can possibly succeed.
func (cl *DistCluster) canRestore(seq uint64) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.broken != nil || cl.closed {
		return false
	}
	live := 0
	for w := range cl.conns {
		if !cl.deadLocked(w) {
			live++
		}
	}
	if live == 0 {
		return false
	}
	m := cl.residency[seq]
	if m == nil {
		return false
	}
	for p, w := range m.loc {
		if (w < 0 || cl.deadLocked(w)) && !m.restorable(p) {
			return false
		}
	}
	return true
}

// checkpointNext applies the Config.CheckpointEvery throttle: whether
// the next retained job output should be checkpointed.
func (cl *DistCluster) checkpointNext(every int) bool {
	if every < 0 {
		return false
	}
	if every == 0 {
		every = 1
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.retained%uint64(every) == 0
}

// noteRetained counts one successfully retained job output.
func (cl *DistCluster) noteRetained() {
	cl.mu.Lock()
	cl.retained++
	cl.mu.Unlock()
}

// RecoveryStats is the cluster's cumulative fault-tolerance activity,
// as reported by DistCluster.RecoveryStats.
type RecoveryStats struct {
	// WorkersLost counts worker slots currently marked dead.
	WorkersLost int
	// Recoveries counts job attempts retried after a loss.
	Recoveries int64
	// Reseeded counts partitions restored from the checkpoint mirror
	// onto a new owner because their previous owner died.
	Reseeded int64
	// HeartbeatTimeouts counts workers declared lost by the health
	// monitor for staying silent while a job waited on them.
	HeartbeatTimeouts int64
	// WorkerReconnects counts transport losses absorbed by session
	// resume: a severed worker redialed and re-attached within the grace
	// window instead of being declared dead.
	WorkerReconnects int64
	// FramesReplayed counts ring frames the coordinator re-sent to
	// re-attached workers across those reconnects.
	FramesReplayed int64
	// JournalBytes is the cumulative size of the coordinator run
	// journal's records, when journaling is enabled.
	JournalBytes int64
	// JobsReplayed counts jobs a resumed coordinator satisfied from the
	// journal instead of re-running.
	JobsReplayed int64
}

// RecoveryStats reports the cluster's cumulative recovery activity.
func (cl *DistCluster) RecoveryStats() RecoveryStats {
	var rs RecoveryStats
	cl.mu.Lock()
	for w := range cl.conns {
		if cl.deadLocked(w) {
			rs.WorkersLost++
		}
	}
	cl.mu.Unlock()
	rs.Recoveries = cl.recoveries.Load()
	rs.Reseeded = cl.reseeded.Load()
	rs.HeartbeatTimeouts = cl.hbTimeouts.Load()
	rs.WorkerReconnects, rs.FramesReplayed = cl.resumeTotals()
	if cl.journal != nil {
		rs.JournalBytes = cl.journal.bytes.Load()
	}
	rs.JobsReplayed = cl.jobsReplayed.Load()
	return rs
}

// resumeTotals sums the session-resume counters over every connection.
func (cl *DistCluster) resumeTotals() (reconnects, replayed int64) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, c := range cl.conns {
		reconnects += c.Reconnects()
		replayed += c.FramesReplayed()
	}
	for _, c := range cl.late {
		reconnects += c.Reconnects()
		replayed += c.FramesReplayed()
	}
	return reconnects, replayed
}

// journalBytes reports the journal's cumulative record bytes (zero
// when journaling is off).
func (cl *DistCluster) journalBytes() int64 {
	if cl.journal == nil {
		return 0
	}
	return cl.journal.bytes.Load()
}

// journalCommit records a round boundary: every journaled job record
// before it is durable, anything after a crash point is discarded by
// the resume loader. Driver.Observe calls it after every observed job
// and Loop after every completed round; a redundant commit is a cheap
// no-op frame. Journal write failures surface on the next journaled
// job — a durability feature that silently stopped journaling would be
// worse than a failed run.
func (cl *DistCluster) journalCommit(round int) {
	if cl.journal == nil {
		return
	}
	//lint:allow errdrop — commit failure latches distJournal.err, which the next appendJob returns into the job error path; a redundant commit has nothing to report it through
	cl.journal.commit(round)
}

// bumpSeq advances the cluster's job sequence counter past a
// journal-replayed job's number, so live jobs resumed mid-pipeline
// never reuse a journaled sequence.
func (cl *DistCluster) bumpSeq(seq uint64) {
	cl.mu.Lock()
	if seq > cl.seq {
		cl.seq = seq
	}
	cl.mu.Unlock()
}

// journalTake pops the next replay-queue record if it matches the job
// about to run. Implemented on the cluster so job runners can call it
// without nil-checking the journal.
func (cl *DistCluster) journalTake(name string) (*journalRecord, error) {
	if cl.journal == nil {
		return nil, nil
	}
	rec, err := cl.journal.takeJob(name)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		cl.jobsReplayed.Add(1)
		cl.bumpSeq(rec.seq)
	}
	return rec, err
}

// journalAppendResident journals one retained job's residency mirror —
// the same per-partition blobs recovery re-seeds from — and its side
// output, which lives nowhere else once the driver has folded it.
func (cl *DistCluster) journalAppendResident(seq uint64, name string, sides [][]uint64) error {
	if cl.journal == nil {
		return nil
	}
	cl.mu.Lock()
	m := cl.residency[seq]
	var counts []int64
	var blobs [][]byte
	if m != nil {
		counts = append([]int64(nil), m.counts...)
		blobs = append([][]byte(nil), m.blobs...)
	}
	cl.mu.Unlock()
	if m == nil || blobs == nil {
		// A resident output with no mirror is not journal-restorable;
		// runDistDS forces checkpointing on whenever the journal is open,
		// so reaching here means that invariant broke.
		return fmt.Errorf("mapreduce: dist journal: job %q (seq %d) retained output without a checkpoint mirror", name, seq)
	}
	return cl.journal.appendJob(&journalRecord{
		seq:    seq,
		name:   name,
		counts: counts,
		blobs:  blobs,
		sides:  sides,
	})
}

// setActiveJob hands the monitor the job in flight. The heartbeat floor
// resets with it: silence is measured from the announce, not from
// whenever the worker last happened to speak before the job existed.
func (cl *DistCluster) setActiveJob(j distActiveJob) {
	cl.mu.Lock()
	cl.activeJob = j
	cl.hbFloor = time.Now()
	cl.mu.Unlock()
}

func (cl *DistCluster) clearActiveJob() {
	cl.mu.Lock()
	cl.activeJob = nil
	cl.mu.Unlock()
}

// hbDeadIntervals is how many heartbeat intervals of silence declare a
// worker the running job waits on lost: 12s at the 500ms default.
const hbDeadIntervals = 24

// monitor is the cluster's health loop: at every heartbeat interval it
// measures the silence of each worker the running attempt waits on and
// declares one lost once it passes hbDeadIntervals intervals. Detection
// only — the verdict routes through the active job's own abort
// machinery, so the monitor can never race a job into an inconsistent
// state.
func (cl *DistCluster) monitor() {
	defer cl.monitorWG.Done()
	ticker := time.NewTicker(cl.hbEvery)
	defer ticker.Stop()
	for {
		select {
		case <-cl.monitorStop:
			return
		case <-ticker.C:
		}
		cl.checkHealth(time.Now())
	}
}

func (cl *DistCluster) checkHealth(now time.Time) {
	cl.mu.Lock()
	j := cl.activeJob
	floor := cl.hbFloor
	conns := cl.conns
	broken := cl.broken != nil || cl.closed
	cl.mu.Unlock()
	if j == nil || broken {
		return
	}
	limit := cl.hbEvery * hbDeadIntervals
	for w, c := range conns {
		// Only workers the active attempt is still waiting on are judged.
		// A non-participant (adopted-but-idle) and a participant that
		// already delivered its MsgJobDone have per-job readers no longer
		// draining their frames, so their LastRead legitimately goes
		// stale — silence there is not evidence of a hang, and condemning
		// the finished survivor of a round that is waiting out a
		// genuinely hung worker would leave no one to retry on. A worker
		// whose transport died but whose session is inside the reconnect
		// grace window is the resume layer's to absorb: if the grace
		// expires, the parked read surfaces its transport error and the
		// ordinary loss path takes over.
		if cl.isDead(w) || !j.waitsOn(w) || c.Recovering() {
			continue
		}
		last := c.LastRead()
		if last.Before(floor) {
			last = floor
		}
		if silent := now.Sub(last); silent > limit {
			cl.hbTimeouts.Add(1)
			j.lost(w, fmt.Errorf("mapreduce: dist worker %d heartbeat timeout (silent %v)", w, silent.Round(time.Millisecond)))
		}
	}
}

// KillWorker SIGKILLs the i-th spawned worker process — demo and test
// instrumentation for the recovery path. Only meaningful for clusters
// started with Spawn.
func (cl *DistCluster) KillWorker(i int) error {
	if i < 0 || i >= len(cl.procs) {
		return fmt.Errorf("mapreduce: no spawned worker %d", i)
	}
	return cl.procs[i].Process.Kill()
}

// InjectFault arms a deterministic transport fault on the coordinator's
// connection to worker w (see remote.Fault). Severing that connection
// is indistinguishable from the worker dying mid-stream, which makes
// every recovery path reproducible in-process by seed.
func (cl *DistCluster) InjectFault(w int, f *remote.Fault) error {
	if w < 0 || w >= len(cl.conns) {
		return fmt.Errorf("mapreduce: no dist worker %d", w)
	}
	cl.conns[w].Arm(f)
	return nil
}

// bytesInOut sums the transport byte counters over all connections.
func (cl *DistCluster) bytesInOut() (in, out int64) {
	for _, c := range cl.conns {
		in += c.BytesIn()
		out += c.BytesOut()
	}
	return in, out
}

// Close dismisses the workers (best effort), closes the connections,
// and reaps any spawned worker processes. Workers that died and were
// recovered from do not surface exit errors here — their loss was
// already part of the computation's story.
func (cl *DistCluster) Close() error {
	cl.mu.Lock()
	if cl.closed {
		// Idempotent: a second Close (the deferred one after an explicit
		// close) reports the first close's verdict without re-running
		// teardown.
		err := cl.closeErr
		cl.mu.Unlock()
		return err
	}
	cl.closed = true
	healthy := cl.broken == nil
	reportExits := healthy && !cl.sawDeath
	dead := append([]bool(nil), cl.dead...)
	late := cl.late
	cl.late = nil
	cl.mu.Unlock()
	if cl.monitorStop != nil {
		close(cl.monitorStop)
		cl.monitorWG.Wait()
	}
	if cl.ln != nil {
		cl.ln.Close()
	}
	for w, c := range cl.conns {
		// Retire the resume session first: a worker that is gone for good
		// must make the goodbye write fail fast, not hold the reconnect
		// grace window open during shutdown.
		c.ShutdownResume()
		if healthy && (w >= len(dead) || !dead[w]) {
			c.WriteFrame([]byte{byte(remote.MsgBye)})
		}
		c.Close()
	}
	for _, c := range late {
		c.ShutdownResume()
		c.WriteFrame([]byte{byte(remote.MsgBye)})
		c.Close()
	}
	if cl.journal != nil {
		cl.journal.close()
	}
	var err error
	for _, cmd := range cl.procs {
		if werr := cl.reapProc(cmd); werr != nil && reportExits && err == nil {
			err = fmt.Errorf("mapreduce: dist worker exited: %w", werr)
		}
	}
	cl.mu.Lock()
	cl.closeErr = err
	cl.mu.Unlock()
	return err
}

// reapProc waits for a spawned worker process with a bounded grace. A
// healthy worker exits within milliseconds of its bye/connection close,
// but a wedged one — stopped, hung, swapped out — never will, and an
// unbounded Wait here would hold coordinator shutdown hostage to the
// exact gray failures the health monitor exists to survive. Past the
// grace the worker is killed and the (now prompt) Wait reaps it.
func (cl *DistCluster) reapProc(cmd *exec.Cmd) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	grace := 4 * cl.drainTimeout
	select {
	case err := <-done:
		return err
	case <-time.After(grace):
		if cmd.Process != nil {
			cmd.Process.Kill()
		}
		<-done
		return fmt.Errorf("mapreduce: dist worker did not exit within %v of shutdown, killed", grace)
	}
}

// distTypeID names a concrete Go type for the job handshake: the
// coordinator and worker compare ids for all four job types before any
// record travels, so a registration mismatch fails loudly instead of
// corrupting a decode.
func distTypeID[T any]() string {
	return reflect.TypeOf((*T)(nil)).Elem().String()
}

// distJobHeader is the decoded MsgJobStart, shared by both sides.
type distJobHeader struct {
	seq      uint64
	name     string
	mode     remote.JobMode
	splits   int
	reducers int
	// ckpt asks the workers to checkpoint their retained output at the
	// flush barrier: stream a mirror copy (MsgCkpt) to the coordinator
	// before MsgJobDone.
	ckpt bool
	// state marks a state job (RunStateDS): the reduce registered under
	// the job's name must be a StateReduceFunc, which the workers join
	// with the resident input partitions they mapped.
	state    bool
	inputSeq uint64
	// owners is the job's partition→worker assignment, one entry per
	// reduce partition. Carried in the header (rather than derived from
	// the worker count) so a recovered cluster can hand a dead worker's
	// partitions to survivors without moving anyone else's.
	owners     []int
	k2id, v2id string
	k3id, v3id string
	params     []byte
}

// owner returns the worker index that owns partition p under this job's
// assignment.
func (h *distJobHeader) owner(p int) int { return h.owners[p] }

func (h *distJobHeader) encode() []byte {
	buf := []byte{byte(remote.MsgJobStart)}
	buf = remote.AppendUvarint(buf, h.seq)
	buf = remote.AppendString(buf, h.name)
	buf = append(buf, byte(h.mode))
	buf = remote.AppendUvarint(buf, uint64(h.splits))
	buf = remote.AppendUvarint(buf, uint64(h.reducers))
	for _, flag := range []bool{h.ckpt, h.state} {
		if flag {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = remote.AppendUvarint(buf, h.inputSeq)
	buf = remote.AppendUvarint(buf, uint64(len(h.owners)))
	for _, w := range h.owners {
		buf = remote.AppendUvarint(buf, uint64(w))
	}
	buf = remote.AppendString(buf, h.k2id)
	buf = remote.AppendString(buf, h.v2id)
	buf = remote.AppendString(buf, h.k3id)
	buf = remote.AppendString(buf, h.v3id)
	buf = remote.AppendBytes(buf, h.params)
	return buf
}

// parseJobHeader decodes a MsgJobStart payload (the type byte already
// consumed).
func parseJobHeader(cur *remote.Cursor) (*distJobHeader, error) {
	h := &distJobHeader{}
	h.seq = cur.Uvarint()
	h.name = cur.String()
	h.mode = remote.JobMode(cur.Byte())
	h.splits = int(cur.Uvarint())
	h.reducers = int(cur.Uvarint())
	h.ckpt = cur.Byte() != 0
	h.state = cur.Byte() != 0
	h.inputSeq = cur.Uvarint()
	nOwners := int(cur.Uvarint())
	if nOwners != h.reducers || nOwners > len(cur.Rest()) {
		return nil, fmt.Errorf("mapreduce: malformed job-start: %d owners for %d partitions", nOwners, h.reducers)
	}
	h.owners = make([]int, nOwners)
	for i := range h.owners {
		h.owners[i] = int(cur.Uvarint())
	}
	h.k2id = cur.String()
	h.v2id = cur.String()
	h.k3id = cur.String()
	h.v3id = cur.String()
	h.params = append([]byte(nil), cur.Bytes()...)
	if err := cur.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: malformed job-start: %w", err)
	}
	return h, nil
}

// encodeBucketFrame builds one MsgBucket frame, appending to buf (pass
// a recycled frameScratch buffer; WriteFrame copies, so the buffer is
// free again as soon as the send returns). The pair payload is a
// self-contained codec-v2 blob (see codecv2.go), so the coordinator can
// relay, mirror, and re-seed the frame body without re-encoding.
func encodeBucketFrame[K comparable, V any](buf []byte, seq uint64, split, part int, pairs []Pair[K, V], pc *pairCodec[K, V]) ([]byte, error) {
	buf = append(buf, byte(remote.MsgBucket))
	buf = remote.AppendUvarint(buf, seq)
	buf = remote.AppendUvarint(buf, uint64(split))
	buf = remote.AppendUvarint(buf, uint64(part))
	buf = remote.AppendUvarint(buf, uint64(len(pairs)))
	return encodePairs(buf, pairs, pc)
}

// distWorkerReport aggregates what one worker told the coordinator
// about a job.
type distWorkerReport struct {
	groups     int64
	outRecords int64
	reduceWall time.Duration
	mapWall    time.Duration
	emitted    int64
	local      int64
	cross      int64
	counts     map[int]int64
	// sides is the side output of the worker's reduce tasks by partition
	// (see SideEmitter); nil when none emitted any.
	sides map[int][]uint64
}

// appendJobDone encodes the body of a MsgJobDone after its sequence
// number: reduce statistics, then per owned partition its resident
// record count and side output.
func appendJobDone(frame []byte, groups, outRecords int64, reduceWall time.Duration,
	parts []int, counts []int64, sides [][]uint64) []byte {
	frame = remote.AppendUvarint(frame, uint64(groups))
	frame = remote.AppendUvarint(frame, uint64(outRecords))
	frame = remote.AppendUvarint(frame, uint64(reduceWall))
	frame = remote.AppendUvarint(frame, uint64(len(parts)))
	for _, p := range parts {
		frame = remote.AppendUvarint(frame, uint64(p))
		frame = remote.AppendUvarint(frame, uint64(counts[p]))
		frame = remote.AppendUvarint(frame, uint64(len(sides[p])))
		for _, v := range sides[p] {
			frame = remote.AppendUvarint(frame, v)
		}
	}
	return frame
}

// parseJobDone is appendJobDone's inverse. The frame comes off a
// socket: every count it declares is held to what the job (partitions)
// or the remaining payload (side values, a byte each at least) can back
// before anything is allocated for it.
func parseJobDone(cur *remote.Cursor, reducers int, rep *distWorkerReport) error {
	rep.groups = int64(cur.Uvarint())
	rep.outRecords = int64(cur.Uvarint())
	rep.reduceWall = time.Duration(cur.Uvarint())
	nParts := cur.Uvarint()
	if nParts > uint64(reducers) {
		return fmt.Errorf("job-done reports %d partitions of %d", nParts, reducers)
	}
	rep.counts = make(map[int]int64, nParts)
	rep.sides = nil
	for i := uint64(0); i < nParts; i++ {
		part := cur.Uvarint()
		if part >= uint64(reducers) {
			return fmt.Errorf("job-done names partition %d of %d", part, reducers)
		}
		rep.counts[int(part)] = int64(cur.Uvarint())
		nSide := cur.Uvarint()
		if nSide > uint64(len(cur.Rest())) {
			return fmt.Errorf("job-done declares %d side values in %d bytes", nSide, len(cur.Rest()))
		}
		if nSide == 0 {
			continue
		}
		side := make([]uint64, nSide)
		for k := range side {
			side[k] = cur.Uvarint()
		}
		if rep.sides == nil {
			rep.sides = make(map[int][]uint64)
		}
		rep.sides[int(part)] = side
	}
	return cur.Err()
}

// distJobRun is the coordinator's state for one job attempt.
//
// Recovery protocol: a worker death during the attempt (a transport
// error on its connection, observed by a reader or a writer) marks the
// worker dead and initiates an abort — MsgAbort to every survivor, each
// of which abandons the job, drops anything retained under its sequence
// number, and acknowledges with MsgAborted, the last frame it sends for
// that sequence. Readers discard everything up to the ack, so the wire
// is quiet when finish returns the latched WorkerLostError and the
// retry loop (runDistDS) re-announces the job with a reassigned
// partition map. Only worker death aborts; a user-function error or
// malformed frame still breaks the cluster (fail-fast), since retrying
// a deterministic failure cannot help.
type distJobRun[K2 comparable, V2 any, K3 comparable, V3 any] struct {
	cl        *DistCluster
	hdr       *distJobHeader
	shufc     *pairCodec[K2, V2] // shuffled pairs (MsgBucket)
	bytesIn0  int64
	bytesOut0 int64
	// live is the set of workers the announce included — the workers
	// that received MsgJobStart and owe a MsgJobDone (or MsgAborted).
	live []int

	// readWG tracks the per-connection reader goroutines, started right
	// after the announce so heartbeats and early worker traffic are
	// consumed (and health refreshed) while the coordinator's own map
	// phase runs.
	readWG   sync.WaitGroup
	readErrs []error
	outcomes []readerOutcome
	finished atomic.Bool

	mu        sync.Mutex
	reports   []distWorkerReport
	loss      *WorkerLostError
	ckptBlobs [][]byte
	// done holds the workers whose MsgJobDone arrived.
	done map[int]bool

	mapDones  atomic.Int64
	aborting  atomic.Bool
	flushOnce sync.Once
	flushErr  error
	// flushed latches once a flush frame may have reached a worker:
	// reduce tasks may be running (see consumeResident).
	flushed atomic.Bool
	records atomic.Int64
}

// waitsOn is the distActiveJob face the cluster monitor sees.
func (j *distJobRun[K2, V2, K3, V3]) waitsOn(w int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done[w] {
		return false
	}
	for _, lw := range j.live {
		if lw == w {
			return true
		}
	}
	return false
}

func (j *distJobRun[K2, V2, K3, V3]) lost(w int, cause error) {
	j.initiateAbort(w, cause)
}

// noteDone records that worker w delivered its full share of this
// attempt: it writes nothing more for the job, so monitor-side silence
// is expected, not evidence of a hang.
func (j *distJobRun[K2, V2, K3, V3]) noteDone(w int) {
	j.mu.Lock()
	j.done[w] = true
	j.mu.Unlock()
}

// startDistJob resolves the two pair codecs (a type without one fails
// here, before any worker hears of the job), snapshots the live worker
// set and the partition assignment into the job header, and announces
// the job to every live worker.
func startDistJob[K2 comparable, V2 any, K3 comparable, V3 any](
	cfg Config, mode remote.JobMode, splits int, inputSeq uint64, state, ckpt bool,
) (*distJobRun[K2, V2, K3, V3], error) {
	cl := cfg.Dist
	if err := cl.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: dist cluster is broken: %w", err)
	}
	shufc, err := pairCodecFor[K2, V2]()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: dist job %q: shuffle %w", cfg.Name, err)
	}
	if _, err := pairCodecFor[K3, V3](); err != nil {
		return nil, fmt.Errorf("mapreduce: dist job %q: output %w", cfg.Name, err)
	}
	owners := cl.ownersFor(cfg.reducers())
	live := cl.liveWorkers()
	if len(live) == 0 {
		return nil, &WorkerLostError{Worker: -1, Job: cfg.Name, Err: errors.New("no live workers")}
	}
	j := &distJobRun[K2, V2, K3, V3]{
		cl: cl,
		hdr: &distJobHeader{
			seq:      cl.nextSeq(),
			name:     cfg.Name,
			mode:     mode,
			splits:   splits,
			reducers: cfg.reducers(),
			ckpt:     ckpt,
			state:    state,
			inputSeq: inputSeq,
			owners:   owners,
			k2id:     distTypeID[K2](),
			v2id:     distTypeID[V2](),
			k3id:     distTypeID[K3](),
			v3id:     distTypeID[V3](),
			params:   cfg.DistParams,
		},
		shufc:   shufc,
		live:    live,
		reports: make([]distWorkerReport, cl.Workers()),
		done:    make(map[int]bool, len(live)),
	}
	cl.mu.Lock()
	j.bytesIn0, j.bytesOut0 = cl.lastIn, cl.lastOut
	cl.mu.Unlock()
	frame := j.hdr.encode()
	var started []int
	for _, w := range live {
		if err := cl.conns[w].WriteFrame(frame); err != nil {
			return nil, j.announceFailed(started, w, err)
		}
		started = append(started, w)
	}
	// Readers start at the announce, one per included worker: worker
	// traffic (heartbeats above all) is consumed — and worker health
	// refreshed — for the whole life of the attempt, including the
	// coordinator-side map phase. The monitor watches the attempt from
	// here until finish clears it.
	j.readErrs = make([]error, cl.Workers())
	j.outcomes = make([]readerOutcome, cl.Workers())
	for _, w := range live {
		w := w
		j.readWG.Add(1)
		go func() {
			defer j.readWG.Done()
			out, err := j.reader(w)
			j.outcomes[w] = out
			if err != nil {
				j.readErrs[w] = err
				// A deterministic failure breaks the cluster
				// immediately: closing the connections unblocks the
				// sibling readers, whose workers may be waiting on a
				// flush that can no longer come. fail latches the first
				// error, so the root cause wins over the cascade it
				// triggers.
				j.cl.fail(err)
			}
		}()
	}
	cl.setActiveJob(j)
	return j, nil
}

// announceFailed handles a worker death during the job announce, before
// any reader goroutine exists: classify the death (a parting MsgError is
// a deterministic failure and breaks the cluster), then synchronously
// abort the workers that already received the announce so the retry
// starts from a quiet wire.
func (j *distJobRun[K2, V2, K3, V3]) announceFailed(started []int, w int, cause error) error {
	if j.cl.noteDead(w) {
		if msg := j.cl.drainFatal(w); msg != "" {
			err := fmt.Errorf("mapreduce: dist job %q: worker %d: %s", j.hdr.name, w, msg)
			j.cl.conns[w].Close()
			j.cl.fail(err)
			return err
		}
		j.cl.conns[w].Close()
	}
	j.setLoss(w, cause)
	frame := remote.AppendUvarint([]byte{byte(remote.MsgAbort)}, j.hdr.seq)
	for _, sw := range started {
		if j.cl.isDead(sw) {
			continue
		}
		c := j.cl.conns[sw]
		c.SetReadDeadline(time.Now().Add(j.cl.abortTimeout))
		if err := c.WriteFrame(frame); err != nil {
			j.cl.markDead(sw, err)
			continue
		}
		j.drainAborted(sw)
		c.SetReadDeadline(time.Time{})
	}
	return j.lossErr()
}

// setLoss latches the first worker loss of the attempt.
func (j *distJobRun[K2, V2, K3, V3]) setLoss(w int, cause error) {
	j.mu.Lock()
	if j.loss == nil {
		j.loss = &WorkerLostError{Worker: w, Job: j.hdr.name, Err: cause}
	}
	j.mu.Unlock()
}

// lossWorkerIs reports whether the latched loss names worker w.
func (j *distJobRun[K2, V2, K3, V3]) lossWorkerIs(w int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.loss != nil && j.loss.Worker == w
}

// lossErr returns the latched loss (never nil once a loss was set).
func (j *distJobRun[K2, V2, K3, V3]) lossErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.loss == nil {
		return &WorkerLostError{Worker: -1, Job: j.hdr.name, Err: errors.New("worker lost")}
	}
	return j.loss
}

// initiateAbort marks worker w dead, latches the loss, and aborts the
// attempt.
func (j *distJobRun[K2, V2, K3, V3]) initiateAbort(w int, cause error) {
	j.cl.markDead(w, cause)
	j.abortAttempt(w, cause)
}

// abortAttempt latches the loss and — once per attempt — tells every
// worker of the attempt to abandon the job. Every reachable worker's
// connection gets read and write deadlines first: a worker that neither
// acknowledges the abort nor dies within AbortTimeout is declared dead
// by timeout, so recovery cannot wedge on a stuck worker.
func (j *distJobRun[K2, V2, K3, V3]) abortAttempt(w int, cause error) {
	j.setLoss(w, cause)
	if !j.aborting.CompareAndSwap(false, true) {
		return
	}
	frame := remote.AppendUvarint([]byte{byte(remote.MsgAbort)}, j.hdr.seq)
	for _, lw := range j.live {
		if j.cl.isDead(lw) {
			continue
		}
		c := j.cl.conns[lw]
		c.SetReadDeadline(time.Now().Add(j.cl.abortTimeout))
		c.SetWriteDeadline(time.Now().Add(j.cl.abortTimeout))
		if err := c.WriteFrame(frame); err != nil {
			j.cl.markDead(lw, err)
		}
		c.SetWriteDeadline(time.Time{})
	}
}

// senderLost handles a write failure to worker w from the
// coordinator's bucket streaming path. The worker is marked dead but
// its connection stays open: the reader goroutine owns it and must get
// the chance to consume a parting MsgError off the socket before it
// dies — a deterministic user-function or registration failure surfaces
// as itself, not as the transport error it caused. The deadline bounds
// the reader's wait; its error path closes the connection.
func (j *distJobRun[K2, V2, K3, V3]) senderLost(w int, cause error) error {
	if j.cl.noteDead(w) {
		j.cl.conns[w].SetReadDeadline(time.Now().Add(j.cl.drainTimeout))
	}
	j.abortAttempt(w, cause)
	return j.lossErr()
}

// drainAborted reads worker w's frames until its MsgAborted ack (the
// read deadline armed at abort time bounds the wait). Used for workers
// whose reader already returned before the abort began.
func (j *distJobRun[K2, V2, K3, V3]) drainAborted(w int) {
	conn := j.cl.conns[w]
	for {
		payload, err := conn.ReadFrame()
		if err != nil {
			j.cl.markDead(w, err)
			return
		}
		cur := remote.NewCursor(payload)
		if remote.MsgType(cur.Byte()) == remote.MsgAborted {
			return
		}
	}
}

// sendBucket encodes one bucket and streams it to the partition's
// owner under the job's assignment.
func (j *distJobRun[K2, V2, K3, V3]) sendBucket(split, part int, pairs []Pair[K2, V2]) error {
	fs := getFrameScratch()
	frame, err := encodeBucketFrame(fs.b[:0], j.hdr.seq, split, part, pairs, j.shufc)
	if err != nil {
		putFrameScratch(fs)
		return fmt.Errorf("mapreduce: dist job %q: encoding bucket: %w", j.hdr.name, err)
	}
	fs.b = frame
	owner := j.hdr.owner(part)
	err = j.cl.conns[owner].WriteFrame(frame)
	putFrameScratch(fs)
	if err != nil {
		return j.senderLost(owner, fmt.Errorf("streaming bucket: %w", err))
	}
	j.records.Add(int64(len(pairs)))
	return nil
}

// flushAll tells every live worker that ingestion is sealed. An abort
// supersedes the flush: aborting workers are unblocked by MsgAbort
// instead.
func (j *distJobRun[K2, V2, K3, V3]) flushAll() error {
	j.flushOnce.Do(func() {
		if j.aborting.Load() {
			j.flushErr = j.lossErr()
			return
		}
		frame := remote.AppendUvarint([]byte{byte(remote.MsgFlush)}, j.hdr.seq)
		j.flushed.Store(true)
		for _, w := range j.live {
			if j.cl.isDead(w) {
				continue
			}
			if err := j.cl.conns[w].WriteFrame(frame); err != nil {
				// The flush phase always has readers running; the dying
				// worker's own reader surfaces any parting MsgError.
				j.initiateAbort(w, fmt.Errorf("flushing: %w", err))
				j.flushErr = j.lossErr()
				return
			}
		}
	})
	return j.flushErr
}

// reader consumes one worker's frames for this job until its MsgJobDone
// (or an error). Chained-mode cross-partition buckets are relayed
// verbatim to their owner's connection: the frame format is identical in
// both directions, so the relay is a single WriteFrame with no
// re-encoding. Because a worker sends all its buckets before its
// MsgMapDone and the reader processes frames in order, once every
// worker's MsgMapDone has been processed every relay has been delivered
// — that is the barrier after which the flush is safe.
// readerOutcome is how one worker's reader goroutine ended. A non-nil
// error from reader supersedes the outcome: it is a deterministic
// failure (malformed frame, user error) that breaks the cluster.
type readerOutcome int

const (
	// outcomeLost: the connection died (or the worker died during an
	// abort) — the attempt is being aborted and may be retried.
	outcomeLost readerOutcome = iota
	// outcomeDone: the worker completed the job (MsgJobDone).
	outcomeDone
	// outcomeAborted: the worker acknowledged the abort.
	outcomeAborted
)

func (j *distJobRun[K2, V2, K3, V3]) reader(w int) (readerOutcome, error) {
	conn := j.cl.conns[w]
	for {
		payload, err := conn.ReadFrame()
		if err != nil {
			// Close explicitly: when the worker was noted dead without a
			// close (senderLost's parting-error window), nobody else
			// will.
			conn.Close()
			j.initiateAbort(w, fmt.Errorf("transport error: %w", err))
			return outcomeLost, nil
		}
		cur := remote.NewCursor(payload)
		switch t := remote.MsgType(cur.Byte()); t {
		case remote.MsgBucket:
			seq := cur.Uvarint()
			cur.Uvarint() // split
			part := int(cur.Uvarint())
			if err := cur.Err(); err != nil || seq != j.hdr.seq ||
				part < 0 || part >= j.hdr.reducers {
				return 0, fmt.Errorf("mapreduce: dist job %q: malformed bucket relay from worker %d", j.hdr.name, w)
			}
			if j.aborting.Load() {
				continue // attempt is being torn down; drop the relay
			}
			owner := j.hdr.owner(part)
			if err := j.cl.conns[owner].WriteFrame(payload); err != nil {
				// The relay target died, not this worker: abort the
				// attempt but keep draining our own connection until the
				// MsgAborted ack.
				j.initiateAbort(owner, fmt.Errorf("relaying bucket: %w", err))
			}
		case remote.MsgPong:
			// Heartbeat: the frame's arrival already refreshed the
			// connection's LastRead.
		case remote.MsgBuilt:
			// The report of a partition ensureResident rebuilt ahead of
			// the announce: its count is on record already.
		case remote.MsgMapDone:
			cur.Uvarint() // seq
			rep := &j.reports[w]
			rep.emitted = int64(cur.Uvarint())
			rep.local = int64(cur.Uvarint())
			rep.cross = int64(cur.Uvarint())
			rep.mapWall = time.Duration(cur.Uvarint())
			if err := cur.Err(); err != nil {
				return 0, fmt.Errorf("mapreduce: dist job %q: malformed map-done from worker %d", j.hdr.name, w)
			}
			if j.aborting.Load() {
				continue
			}
			if j.mapDones.Add(1) == int64(len(j.live)) {
				// flushAll's only failure mode here is a worker loss that
				// already initiated the abort; nothing more to do.
				j.flushAll()
			}
		case remote.MsgCkpt:
			seq := cur.Uvarint()
			part := int(cur.Uvarint())
			cur.Uvarint() // count
			if err := cur.Err(); err != nil || seq != j.hdr.seq ||
				part < 0 || part >= j.hdr.reducers {
				return 0, fmt.Errorf("mapreduce: dist job %q: malformed checkpoint frame from worker %d", j.hdr.name, w)
			}
			if j.aborting.Load() {
				continue
			}
			blob := cur.Rest()
			if blob == nil {
				blob = []byte{}
			}
			j.mu.Lock()
			if j.ckptBlobs == nil {
				j.ckptBlobs = make([][]byte, j.hdr.reducers)
			}
			j.ckptBlobs[part] = blob
			j.mu.Unlock()
		case remote.MsgJobDone:
			cur.Uvarint() // seq
			if err := parseJobDone(cur, j.hdr.reducers, &j.reports[w]); err != nil {
				return 0, fmt.Errorf("mapreduce: dist job %q: malformed job-done from worker %d: %w", j.hdr.name, w, err)
			}
			j.noteDone(w)
			if j.aborting.Load() {
				// The worker finished before seeing the abort; its
				// MsgAborted ack is still coming. Keep reading so finish
				// doesn't have to.
				continue
			}
			return outcomeDone, nil
		case remote.MsgAborted:
			return outcomeAborted, nil
		case remote.MsgError:
			cur.Uvarint() // seq
			msg := cur.String()
			if j.aborting.Load() && !j.lossWorkerIs(w) {
				// A survivor that errors while tearing down is as good
				// as dead; the retry will surface any deterministic
				// failure on a healthy attempt. But when the error comes
				// from the worker whose loss started the abort, it IS
				// the root cause — a user function or registration
				// failure that must surface as itself.
				j.cl.markDead(w, fmt.Errorf("worker error during abort: %s", msg))
				return outcomeLost, nil
			}
			return 0, fmt.Errorf("mapreduce: dist job %q: worker %d: %s", j.hdr.name, w, msg)
		default:
			return 0, fmt.Errorf("mapreduce: dist job %q: unexpected %v from worker %d", j.hdr.name, t, w)
		}
	}
}

// finish drives the job to completion after the coordinator's own
// sending is done (mapErr carries a local map-phase failure): waits for
// the per-connection readers startDistJob launched at the announce,
// observes the flush barrier, aggregates the worker reports into stats,
// and burns the coordinator-side failure coins so injected-failure
// statistics match the local backends. Success here is the one place
// an attempt's results — resident counts, side output — are accepted;
// an aborted attempt contributes none.
func (j *distJobRun[K2, V2, K3, V3]) finish(ctx context.Context, cfg Config, stats *Stats, mapErr error) (*distJobResult, error) {
	defer j.cl.clearActiveJob()
	readErrs := j.readErrs
	outcomes := j.outcomes
	// A cancelled context must unblock the readers: break the cluster,
	// which closes the connections under them.
	watchDone := make(chan struct{})
	var watchWG sync.WaitGroup
	if ctx != nil {
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			select {
			case <-ctx.Done():
				j.cl.fail(fmt.Errorf("mapreduce: dist job %q: %w", j.hdr.name, ctx.Err()))
			case <-watchDone:
			}
		}()
	}

	if mapErr != nil {
		if !isWorkerLost(mapErr) {
			// The coordinator's map phase failed deterministically: the
			// workers are still waiting for buckets, so the cluster
			// cannot be reused.
			j.cl.fail(fmt.Errorf("mapreduce: dist job %q failed during map: %w", j.hdr.name, mapErr))
		}
		// A worker loss during the map phase already initiated the
		// abort; the readers drain to their MsgAborted acks.
	} else if j.hdr.mode == remote.ModeFlat {
		// No worker map phase: the coordinator sealed ingestion the
		// moment its own map tasks finished.
		if err := j.flushAll(); err != nil {
			mapErr = err
		}
	}
	j.readWG.Wait()
	j.finished.Store(true)
	close(watchDone)
	watchWG.Wait()

	if j.aborting.Load() {
		// Workers whose reader returned on MsgJobDone before the abort
		// began still owe a MsgAborted ack; collect it so the next
		// attempt starts from a quiet wire (the abort-time read deadline
		// bounds the wait), then clear the deadlines the abort armed.
		for _, w := range j.live {
			if outcomes[w] == outcomeDone && readErrs[w] == nil && !j.cl.isDead(w) {
				j.drainAborted(w)
			}
		}
		for _, w := range j.live {
			if !j.cl.isDead(w) {
				j.cl.conns[w].SetReadDeadline(time.Time{})
			}
		}
	}

	for _, err := range readErrs {
		if err != nil {
			// Return the first-latched error (the root cause), not
			// whichever cascade error this slot happens to hold.
			if first := j.cl.Err(); first != nil {
				return nil, first
			}
			return nil, err
		}
	}
	if err := j.cl.Err(); err != nil {
		return nil, err
	}
	if j.aborting.Load() {
		return nil, j.lossErr()
	}
	if mapErr != nil {
		return nil, mapErr
	}

	// Aggregate the worker reports.
	res := &distJobResult{counts: make([]int64, j.hdr.reducers)}
	var workerWall time.Duration
	for w := range j.reports {
		rep := &j.reports[w]
		stats.ReduceGroups += rep.groups
		stats.ReduceOutputRecords += rep.outRecords
		if wall := rep.mapWall + rep.reduceWall; wall > workerWall {
			workerWall = wall
		}
		for part, n := range rep.counts {
			res.counts[part] = n
		}
		for part, side := range rep.sides {
			if res.sides == nil {
				res.sides = make([][]uint64, j.hdr.reducers)
			}
			res.sides[part] = side
		}
		if j.hdr.mode == remote.ModeChained {
			stats.addMapOutput(rep.emitted)
			stats.addRouted(rep.local, rep.cross)
			j.records.Add(rep.local + rep.cross)
		}
	}
	stats.WorkerWall = workerWall
	in, out := j.cl.bytesInOut()
	stats.RemoteBytesIn = in - j.bytesIn0
	stats.RemoteBytesOut = out - j.bytesOut0
	j.cl.mu.Lock()
	j.cl.lastIn, j.cl.lastOut = in, out
	j.cl.mu.Unlock()
	stats.ShuffleRecords = j.records.Load()
	return res, nil
}

// distJobResult is what a successful attempt hands back, per partition:
// resident count and side output.
type distJobResult struct {
	counts []int64
	sides  [][]uint64
}

// distSender is the ShuffleBackend the coordinator's map phase emits
// into under ShuffleDist: buckets stream straight to the owning worker.
// Finalize is never reached — reduce happens on the workers — so the
// dist path never builds a GroupStream.
type distSender[K2 comparable, V2 any, K3 comparable, V3 any] struct {
	j  *distJobRun[K2, V2, K3, V3]
	ar *roundArena[K2, V2]
}

func (s *distSender[K2, V2, K3, V3]) Partitions() int { return s.j.hdr.reducers }
func (s *distSender[K2, V2, K3, V3]) BucketCap() int  { return 0 }

func (s *distSender[K2, V2, K3, V3]) AddBucket(split, part int, pairs []Pair[K2, V2]) error {
	err := s.j.sendBucket(split, part, pairs)
	// The bucket is on the wire: its storage feeds the next emitter fill.
	s.ar.putBucket(part, pairs)
	return err
}

func (s *distSender[K2, V2, K3, V3]) Finalize() ([]GroupStream[K2, V2], error) {
	return nil, errors.New("mapreduce: dist backend has no local group streams")
}

func (s *distSender[K2, V2, K3, V3]) Close() error { return nil }

// schedSnapshot brackets one logical job's monitor and durability
// activity: deltas of the cluster counters across all its attempts.
type schedSnapshot struct {
	hb0, rc0, fr0, jb0 int64
}

func (s *schedSnapshot) start(cl *DistCluster) {
	s.hb0 = cl.hbTimeouts.Load()
	s.rc0, s.fr0 = cl.resumeTotals()
	s.jb0 = cl.journalBytes()
}

func (s *schedSnapshot) settle(cl *DistCluster, as *Stats) {
	as.HeartbeatTimeouts = cl.hbTimeouts.Load() - s.hb0
	rc, fr := cl.resumeTotals()
	as.WorkerReconnects = rc - s.rc0
	as.FramesReplayed = fr - s.fr0
	as.JournalBytes = cl.journalBytes() - s.jb0
}

// runDistDS executes one job on the dist backend (execJob's dist half),
// retrying the whole job when an attempt dies to worker loss. A
// worker-resident input (inputSeq != 0, mapped by the workers) is
// restorable across attempts as long as every lost partition has a
// coordinator-mirrored checkpoint blob (ensureResident re-seeds it to
// the new owner); an input the coordinator maps itself (mapPhase) needs
// no restoration at all. Each attempt runs against scratch stats; only
// the successful attempt's numbers merge into the caller's, so retried
// work is invisible everywhere except Stats.WorkerRecoveries.
func runDistDS[K2 comparable, V2 any, K3 comparable, V3 any](
	ctx context.Context,
	cfg Config,
	splits int,
	inputSeq uint64,
	state bool,
	mapPhase mapPhaseFunc[K2, V2],
	stats *Stats,
) (*Dataset[K3, V3], error) {
	cl := cfg.Dist
	if cl == nil {
		return nil, errors.New("mapreduce: shuffle backend \"dist\" requires Config.Dist (a started DistCluster)")
	}
	// A resumed coordinator satisfies already-journaled jobs straight from
	// the journal: the mirror blobs become a residency record whose
	// partitions live nowhere yet (locNowhere) — ensureResident seeds them to
	// workers the first time a job consumes the dataset, and a fetch
	// (Materialize, Run) decodes them where they are.
	if rec, err := cl.journalTake(cfg.Name); err != nil {
		return nil, err
	} else if rec != nil {
		owners := make([]int, len(rec.counts))
		for p := range owners {
			owners[p] = locNowhere
		}
		cl.registerResident(rec.seq, &distMirror{loc: owners, counts: rec.counts, blobs: rec.blobs})
		cl.noteRetained()
		return newRemoteDataset[K3, V3](cl, rec.seq, rec.counts, rec.sides, keyCast[K2, K3]() != nil, cfg.Pool), nil
	}
	// One checkpoint decision per job, not per attempt: a retried job
	// checkpoints iff the original would have. An open journal forces the
	// mirror on for every retained output — a journaled run must be able
	// to re-seed any resident dataset after a coordinator restart.
	ckpt := cl.checkpointNext(cfg.CheckpointEvery) || cl.journal != nil
	var sched schedSnapshot
	sched.start(cl)
	for attempt := 0; ; attempt++ {
		// Adopt late joiners and move dead workers' partitions;
		// ensureResident re-seeds the data the new assignment calls for.
		cl.recoverAssignments()
		as := newStats(cfg.Name)
		out, err := tryDistDS[K2, V2, K3, V3](ctx, cfg, splits, inputSeq, state, mapPhase, as, ckpt)
		if err == nil {
			if jerr := cl.journalAppendResident(out.rem.seq, cfg.Name, out.side); jerr != nil {
				out.Recycle()
				return nil, jerr
			}
			as.WorkerRecoveries = int64(attempt)
			sched.settle(cl, as)
			stats.Add(as)
			cl.noteRetained()
			return out, nil
		}
		if !isWorkerLost(err) || !cl.retryAfterLoss(attempt) {
			return nil, err
		}
		if inputSeq != 0 && !cl.canRestore(inputSeq) {
			// The input itself lost partitions that were never
			// checkpointed; engine-level retry cannot reconstruct them.
			// Loop-level replay (Dataset.Loop) may still recover from the
			// round boundary.
			return nil, err
		}
		cl.recoveries.Add(1)
	}
}

// tryDistDS is one job attempt. Output stays worker-resident (the
// returned Dataset holds a residency handle, not records). A
// worker-resident input is mapped on the workers, so self-addressed
// pairs never touch the wire; otherwise the coordinator runs mapPhase
// and streams every bucket to its partition's owner.
func tryDistDS[K2 comparable, V2 any, K3 comparable, V3 any](
	ctx context.Context,
	cfg Config,
	splits int,
	inputSeq uint64,
	state bool,
	mapPhase mapPhaseFunc[K2, V2],
	stats *Stats,
	ckpt bool,
) (*Dataset[K3, V3], error) {
	cl := cfg.Dist
	phase := time.Now()
	mode := remote.ModeFlat
	if inputSeq != 0 {
		// Reconcile the input's partition locations against the current
		// assignment: re-seed what a dead owner lost before announcing
		// the job that consumes it.
		reseeded, err := cl.ensureResident(inputSeq, cfg.Name)
		if err != nil {
			return nil, err
		}
		stats.ReseededPartitions = int64(reseeded)
		mode = remote.ModeChained
	}
	job, err := startDistJob[K2, V2, K3, V3](cfg, mode, splits, inputSeq, state, ckpt)
	if err != nil {
		return nil, err
	}
	// A worker-side map phase is observed by the readers in finish,
	// through MsgMapDone and the flush barrier.
	var mapErr error
	if inputSeq == 0 {
		ar := arenaFor[K2, V2](cfg.Pool, cfg.reducers())
		mapErr = mapPhase(ctx, &distSender[K2, V2, K3, V3]{j: job, ar: ar}, ar, stats)
		stats.MapWall = time.Since(phase)
		phase = time.Now()
	}
	res, err := job.finish(ctx, cfg, stats, mapErr)
	stats.ReduceWall = time.Since(phase)
	if err != nil {
		if inputSeq != 0 && job.flushed.Load() && isWorkerLost(err) {
			cl.consumeResident(inputSeq)
		}
		return nil, err
	}
	return job.retain(res, cfg.Pool), nil
}

// retain registers a successful attempt's worker-resident output (with
// its checkpoint mirror, if any) and wraps it in a Dataset.
func (j *distJobRun[K2, V2, K3, V3]) retain(res *distJobResult, pool *BufferPool) *Dataset[K3, V3] {
	j.cl.registerResident(j.hdr.seq, &distMirror{
		loc:    append([]int(nil), j.hdr.owners...),
		counts: res.counts,
		blobs:  j.takeCkptBlobs(),
	})
	return newRemoteDataset[K3, V3](j.cl, j.hdr.seq, res.counts, res.sides, keyCast[K2, K3]() != nil, pool)
}

// takeCkptBlobs hands the attempt's mirrored checkpoint frames to the
// residency registry (nil when the job didn't checkpoint).
func (j *distJobRun[K2, V2, K3, V3]) takeCkptBlobs() [][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	blobs := j.ckptBlobs
	j.ckptBlobs = nil
	return blobs
}

// distResident is a Dataset's residency handle: which cluster and job
// own the records, and how many live in each partition (Len without a
// fetch).
type distResident struct {
	cl     *DistCluster
	seq    uint64
	counts []int64
}

// newRemoteDataset wraps a worker-resident job output in a Dataset.
func newRemoteDataset[K comparable, V any](cl *DistCluster, seq uint64, counts []int64, sides [][]uint64, aligned bool, pool *BufferPool) *Dataset[K, V] {
	return &Dataset[K, V]{
		parts:   make([][]Pair[K, V], len(counts)),
		aligned: aligned,
		pool:    pool,
		rem:     &distResident{cl: cl, seq: seq, counts: counts},
		side:    sides,
	}
}

// placeResident puts a state job's coordinator-held input on the
// cluster: encode every partition into its mirror blob and register the
// Dataset as resident nowhere yet, the state a journal-restored output is
// in — the job that consumes it has ensureResident seed each partition to
// its owner (a seed, not a recovery: nothing counts as reseeded).
func placeResident[K comparable, V any](cl *DistCluster, ds *Dataset[K, V], cfg Config) (*Dataset[K, V], error) {
	pc, err := pairCodecFor[K, V]()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: placing dataset: %w", err)
	}
	n := len(ds.parts)
	owners, counts, blobs := make([]int, n), make([]int64, n), make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p, part := range ds.parts {
		owners[p] = locNowhere
		counts[p] = int64(len(part))
		wg.Add(1)
		go func() {
			defer wg.Done()
			blobs[p], errs[p] = encodePairs(nil, part, pc)
		}()
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mapreduce: placing dataset: partition %d: %w", p, err)
		}
	}
	seq := cl.nextSeq()
	cl.registerResident(seq, &distMirror{loc: owners, counts: counts, blobs: blobs})
	return newRemoteDataset[K, V](cl, seq, counts, nil, true, cfg.Pool), nil
}

// Materialize moves a worker-resident Dataset's records to the caller:
// every partition is fetched from its owning worker and the residency is
// released (the workers drop their copies). A no-op for local Datasets.
// Record access (Collect, Each, Part, MapValues, Repartition) requires a
// materialized Dataset; in-repo algorithms call Materialize explicitly
// after every job whose output they read driver-side, so fetch errors
// surface as errors rather than panics.
func (d *Dataset[K, V]) Materialize() error {
	if d.rem == nil {
		return nil
	}
	rem := d.rem
	if err := rem.cl.Err(); err != nil {
		return fmt.Errorf("mapreduce: materializing dataset: dist cluster is broken: %w", err)
	}
	pc, err := pairCodecFor[K, V]()
	if err != nil {
		return fmt.Errorf("mapreduce: materializing dataset: %w", err)
	}
	fetch := remote.AppendUvarint([]byte{byte(remote.MsgFetch)}, rem.seq)
	// One fetch per live connection, concurrently: the workers own
	// disjoint partitions and each connection has its own reader, so the
	// materialization wall is the slowest worker's transfer, not the
	// sum — this sits on the per-round critical path of every algorithm
	// that folds job output driver-side. loc filters stale copies: after
	// a recovery a partition may exist on both its old owner (a seed
	// that was reassigned again) and its current one; only the current
	// owner's copy is accepted.
	loc := rem.cl.residencySnapshot(rem.seq)
	live := rem.cl.liveWorkers()
	// A live worker that owns nothing under the residency map (an idle
	// adopted late joiner) has nothing to contribute — skip its
	// round-trip.
	if loc != nil {
		owned := make(map[int]bool, len(live))
		for _, w := range loc {
			owned[w] = true
		}
		kept := live[:0]
		for _, w := range live {
			if owned[w] {
				kept = append(kept, w)
			}
		}
		live = kept
	}
	errs := make([]error, len(rem.cl.conns))
	var wg sync.WaitGroup
	for _, w := range live {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.fetchFrom(rem.cl.conns[w], w, loc, fetch, pc); err != nil {
				errs[w] = fmt.Errorf("mapreduce: fetching resident partitions from worker %d: %w", w, err)
				rem.cl.markDead(w, errs[w])
			}
		}()
	}
	wg.Wait()
	var lost error
	for _, err := range errs {
		if err != nil {
			lost = &WorkerLostError{Worker: -1, Job: "materialize", Err: err}
			break
		}
	}
	// Fill the holes — partitions owned by a worker that died before or
	// during the fetch — from the coordinator's checkpoint mirror, or for
	// a built Dataset by building them here. The mirror blob is the
	// canonical encodePairs image, and a build is deterministic, so the
	// partition is bit-identical to the lost copy.
	for p := range d.parts {
		if d.parts[p] != nil || p >= len(rem.counts) || rem.counts[p] == 0 {
			continue
		}
		if d.rebuild != nil {
			pairs, err := d.rebuild(p)
			if err == nil && int64(len(pairs)) != rem.counts[p] {
				err = fmt.Errorf("%d records, the workers built %d", len(pairs), rem.counts[p])
			}
			if err != nil {
				return fmt.Errorf("mapreduce: materializing dataset: rebuilding partition %d: %w", p, err)
			}
			d.parts[p] = pairs
			continue
		}
		blob, ok := rem.cl.mirrorPart(rem.seq, p)
		if !ok || blob == nil {
			if lost != nil {
				return lost
			}
			return fmt.Errorf("mapreduce: materializing dataset: partition %d lost without a checkpoint", p)
		}
		n := int(rem.counts[p])
		cur := remote.NewCursor(blob)
		pairs, err := decodePairs(cur, n, pc, make([]Pair[K, V], 0, n))
		if err != nil {
			return fmt.Errorf("mapreduce: materializing dataset: restoring partition %d from checkpoint: %w", p, err)
		}
		d.parts[p] = pairs
	}
	rem.cl.forgetResident(rem.seq)
	d.rem = nil
	d.rebuild = nil
	return nil
}

// fetchFrom drains one worker's resident partitions for this dataset.
// loc (the cluster's residency map, nil when unknown) gates acceptance:
// only the current owner's copy of a partition is installed.
func (d *Dataset[K, V]) fetchFrom(conn *remote.Conn, w int, loc []int, fetch []byte, pc *pairCodec[K, V]) error {
	if err := conn.WriteFrame(fetch); err != nil {
		return err
	}
	// Rolling read deadline: a gray-failed worker (socket open, no
	// frames) must not hang materialization forever — on timeout the
	// caller marks it dead and its partitions restore from the mirror.
	timeout := distAbortTimeout
	if d.rem != nil && d.rem.cl != nil {
		timeout = d.rem.cl.abortTimeout
	}
	defer conn.SetReadDeadline(time.Time{})
	for {
		conn.SetReadDeadline(time.Now().Add(timeout))
		payload, err := conn.ReadFrame()
		if err != nil {
			return err
		}
		cur := remote.NewCursor(payload)
		switch t := remote.MsgType(cur.Byte()); t {
		case remote.MsgPong:
			// heartbeat interleaved with the fetch stream
		case remote.MsgPart:
			cur.Uvarint() // seq
			part := int(cur.Uvarint())
			count := int(cur.Uvarint())
			if err := cur.Err(); err != nil || part < 0 || part >= len(d.parts) {
				return fmt.Errorf("malformed resident partition frame")
			}
			if loc != nil && part < len(loc) && loc[part] != w {
				continue // stale copy from a previous assignment
			}
			pairs, err := decodePairs(cur, count, pc, make([]Pair[K, V], 0, pairCap(cur, count, pc)))
			if err != nil {
				return err
			}
			d.parts[part] = pairs
		case remote.MsgFetchDone:
			return nil
		case remote.MsgBuilt:
			// A rebuilt partition's report (see the job reader).
		case remote.MsgError:
			cur.Uvarint()
			return errors.New(cur.String())
		default:
			return fmt.Errorf("unexpected %v during fetch", t)
		}
	}
}

// mustMaterialize backs the record accessors of Dataset. Reaching a
// fetch failure here means a remote Dataset was accessed without a
// prior Materialize check — a programming error — so it fails loudly.
func (d *Dataset[K, V]) mustMaterialize() {
	if err := d.Materialize(); err != nil {
		panic(fmt.Sprintf("mapreduce: unchecked access to a worker-resident Dataset: %v (call Materialize and handle the error first)", err))
	}
}

// dropResident releases a worker-resident Dataset's partitions on the
// workers (Recycle's remote half). Best effort: a worker that cannot be
// told is marked dead (its copy dies with it), and the coordinator's
// mirror is forgotten unconditionally.
func (d *Dataset[K, V]) dropResident() {
	rem := d.rem
	d.rem, d.rebuild = nil, nil
	if rem == nil {
		return
	}
	rem.cl.forgetResident(rem.seq)
	if rem.cl.Err() != nil {
		return
	}
	frame := remote.AppendUvarint([]byte{byte(remote.MsgDrop)}, rem.seq)
	for _, w := range rem.cl.liveWorkers() {
		if err := rem.cl.conns[w].WriteFrame(frame); err != nil {
			rem.cl.markDead(w, fmt.Errorf("mapreduce: dropping resident dataset on worker %d: %w", w, err))
		}
	}
}
