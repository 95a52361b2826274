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
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapreduce/remote"
)

// This file is the coordinator half of the distributed execution mode
// (ShuffleDist): reduce partitions are sharded across worker processes
// connected over the length-prefixed TCP transport of
// internal/mapreduce/remote. Every job maps on the workers that hold its
// input — a job output, a Dataset built there (BuildDS), or a
// coordinator-held input placed there first (placeResident) — so the
// coordinator only orchestrates: it relays the buckets a worker's map
// addressed to another worker's partition, and the workers group-sort
// and reduce their partitions locally with the same radix path and
// buffer pool the in-memory backend uses — which is what makes the
// output bit-identical to ShuffleMemory for the same seed and partition
// count. Reduce output stays worker-resident, so the next chained job's
// self-addressed pairs never cross the wire — and a state job's input
// records (RunStateDS) are not even shuffled: the worker that maps a
// partition joins it with the partition's groups; a caller that wants
// the records (Materialize) fetches them. The worker half lives in
// distworker.go; workers run the map and reduce functions registered
// under the job's name via RegisterDistJob — the function values
// themselves never travel.

// DistCluster is a set of connected worker processes, shared by every
// job of a computation (Config.Dist). Reduce partitions start out owned
// round-robin (partition p belongs to worker p mod N); each job carries
// its own partition→worker assignment in the job header, so when a
// worker dies its partitions are re-assigned to the survivors while
// every surviving partition stays put. The worker set is fixed when
// StartDistCluster returns: a lost worker's slot stays dead, and no
// replacement joins.
// A cluster is single-computation: jobs run one at a time. Worker death
// loses the *attempt*, not the cluster — the in-flight job runs to its
// end on the survivors, its output is dropped, and it is retried with
// restored input (see the recovery notes on distJobRun). Only
// non-transport failures (a user function erroring, a malformed frame,
// context cancellation) break the cluster, and later jobs then fail fast
// rather than running on a cluster in an unknown state.
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
	// or kill), one slot per connection. A dead slot keeps its index —
	// partition assignments name workers by index — but is skipped by
	// every frame loop.
	dead     []bool
	sawDeath bool
	// owners maps a partition count to the sticky assignment array for
	// that geometry. Only a dead worker's partitions ever move (to the
	// live workers, round-robin in partition order), so data resident on
	// survivors is never reassigned away from them.
	owners map[int][]int
	// residency holds the record of every worker-resident Dataset a
	// caller still holds, from the job, build or placement that made it
	// until Materialize or Recycle releases it. A released record lives
	// on, outside this set, as long as a resident child's lineage needs it.
	residency map[*distResidency]bool
	// ln stays open after startup only for session re-attachment.
	ln net.Listener
	// reconnectGrace > 0 enables session resume on every worker
	// connection: a worker whose transport dies may redial and re-attach
	// within the grace window, replaying un-acked frames, instead of
	// being declared dead and recovered around.
	reconnectGrace time.Duration
	closeErr       error

	// Health-monitor configuration (resolved from DistClusterOptions at
	// startup); activeJob/hbFloor are what the monitor goroutine watches:
	// the job in flight, registered by startDistJob and cleared when
	// finish returns.
	hbEvery      time.Duration
	replyTimeout time.Duration
	activeJob    *distJobRun
	hbFloor      time.Time
	monitorStop  chan struct{}
	monitorWG    sync.WaitGroup

	recoveries atomic.Int64
	reseeded   atomic.Int64
	hbTimeouts atomic.Int64
}

// Partition locations that name no worker. ensureResident puts such a
// partition back on a worker; only the second is a recovery.
const (
	// locNowhere: no worker holds the partition — a state job's input the
	// coordinator placed (placeResident) and no job has read yet, or a
	// Dataset that was fetched or dropped.
	locNowhere = -1
	// locConsumed: a job's reduce phase ran over the partition (see
	// markConsumed), so any copy a worker still holds is stale.
	locConsumed = -2
)

// distResidency is the residency record of one worker-resident Dataset:
// the sequence number the workers hold it under, where each partition
// lives, and how to make any partition again. There are exactly three
// ways, and a record has one of them: a BuildDS recipe, the coordinator's
// own copy (the encoded blobs placeResident made), or the job that
// produced it, run again over its input's record (rerun). A record that
// a job produced points to its input's record through rerun, so a
// dropped parent stays reachable exactly as long as a resident child
// needs it.
type distResidency struct {
	cl *DistCluster
	// seq changes only when recompute replaces the partitions, on the
	// goroutine that runs the computation's jobs; loc is read and written
	// under cl.mu.
	seq    uint64
	loc    []int   // current owner of each partition, or a loc* sentinel
	counts []int64 // pairs per partition (from the job or build reports)
	recipe *distBuild
	blobs  [][]byte
	// rerun runs the producing job once more on the live workers, after
	// restoring its input, and returns the fresh output's record; its
	// stats and side output are thrown away.
	rerun func(ctx context.Context) (*distResidency, error)
}

// seedFrame is the frame that puts partition p on a worker: the recipe's
// build frame, or a seed carrying the coordinator's blob.
func (r *distResidency) seedFrame(p int) []byte {
	if r.recipe != nil {
		return r.recipe.frame(r.seq, p)
	}
	frame := []byte{byte(remote.MsgSeed)}
	frame = remote.AppendUvarint(frame, r.seq)
	frame = remote.AppendUvarint(frame, uint64(p))
	frame = remote.AppendUvarint(frame, uint64(r.counts[p]))
	return append(frame, r.blobs[p]...)
}

// WorkerLostError reports that a dist worker died. The engine retries
// the in-flight job internally after a loss, restoring what the dead
// worker held from its lineage, so this error escapes a job (RunDS,
// RunStateDS, BuildDS) or a Materialize only when recovery is
// impossible, and then it is final: no live workers remain, or the retry
// budget is exhausted.
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
	// HeartbeatEvery is the health cadence: workers send a heartbeat
	// every interval and the coordinator's monitor ticks at the same
	// rate. A worker the running job waits on that stays silent for
	// hbDeadIntervals intervals is declared lost. Zero means the 500ms
	// default; negative disables health monitoring entirely (no pongs,
	// no monitor).
	HeartbeatEvery time.Duration
	// ReplyTimeout bounds the coordinator's wait for one worker's reply
	// to a build, a fetch of resident partitions, or a redialing worker's
	// resume hello (default 30s): a worker silent that long is lost.
	ReplyTimeout time.Duration
	// ReconnectGrace, when positive, enables session resume on every
	// worker connection: frames are sequence-numbered and ringed, and a
	// worker whose transport errors may redial and re-attach by worker
	// id + session token within the grace window — both sides replay
	// un-acked frames and the run continues, with no retry, no restore.
	// Only past the grace does the loss escalate to the usual
	// death/recovery path. Keeps the listener open for re-attachment.
	// Zero disables (the default).
	ReconnectGrace time.Duration
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
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: dist listen: %w", err)
	}

	cl := &DistCluster{
		hbEvery:        opts.HeartbeatEvery,
		replyTimeout:   opts.ReplyTimeout,
		reconnectGrace: opts.ReconnectGrace,
		dead:           make([]bool, n),
	}
	if cl.hbEvery == 0 {
		cl.hbEvery = 500 * time.Millisecond
	}
	if cl.replyTimeout <= 0 {
		cl.replyTimeout = distReplyTimeout
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
	if cl.reconnectGrace > 0 {
		cl.ln = ln
		go cl.acceptResumes(ln)
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

// acceptResumes is the post-startup accept loop: it re-attaches a
// severed worker's redial to its existing session in place, and closes
// any other connection — the worker set is fixed at startup. Exits when
// the listener closes.
func (cl *DistCluster) acceptResumes(ln net.Listener) {
	for {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(time.Time{})
		}
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		nc.SetReadDeadline(time.Now().Add(cl.replyTimeout))
		conn := remote.NewConn(nc)
		hi, err := remote.AwaitHello(conn)
		if err != nil {
			conn.Close()
			continue
		}
		if !hi.Resume {
			conn.Close()
			continue
		}
		nc.SetReadDeadline(time.Time{})
		cl.reattachWorker(nc, hi)
	}
}

// reattachWorker routes a resume hello to the session it names: find
// the connection by worker id, and let its resume layer verify the
// token, swap the transport, and replay. A session that does not exist,
// is dead, or refuses the re-attach gets a refusal frame, which stops
// the worker's redialing.
func (cl *DistCluster) reattachWorker(nc net.Conn, hi remote.HelloInfo) {
	cl.mu.Lock()
	var target *remote.Conn
	if hi.WorkerID >= 0 && hi.WorkerID < len(cl.conns) && !cl.deadLocked(hi.WorkerID) {
		target = cl.conns[hi.WorkerID]
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

// distDrainTimeout bounds the read for a parting MsgError after a write
// to a worker fails; four of it bound a spawned worker's exit at Close.
const distDrainTimeout = 500 * time.Millisecond

// distReplyTimeout is the default ReplyTimeout: the read deadline, rolled
// with every frame, on a worker's reply to a build or a fetch, and on a
// redialing worker's resume hello, so a wedged worker cannot block the
// coordinator forever.
const distReplyTimeout = 30 * time.Second

// isDead reports whether worker w has been lost.
func (cl *DistCluster) isDead(w int) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.deadLocked(w)
}

func (cl *DistCluster) deadLocked(w int) bool {
	// Negative indexes name no worker at all (locNowhere, locConsumed);
	// they are not dead, just absent.
	return w >= 0 && cl.dead[w]
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
	c.SetReadDeadline(time.Now().Add(distDrainTimeout))
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
// move, which is what lets recovery restore only what was actually
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

// recoverAssignments starts every job attempt: it rewrites every stored
// assignment so dead workers own nothing.
func (cl *DistCluster) recoverAssignments() {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, o := range cl.owners {
		cl.reassignLocked(o)
	}
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

// registerResident enters a record the caller now holds a Dataset of.
func (cl *DistCluster) registerResident(r *distResidency) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.residency == nil {
		cl.residency = make(map[*distResidency]bool)
	}
	cl.residency[r] = true
}

// releaseResident takes a fetched or dropped record out of the set and
// marks every partition locNowhere: no worker holds it any more. The
// record itself lives on while a child's lineage points to it.
func (cl *DistCluster) releaseResident(r *distResidency) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	delete(cl.residency, r)
	for p := range r.loc {
		r.loc[p] = locNowhere
	}
}

// ensureResident puts every partition of r that no live worker holds
// back on the worker the current assignment names, before a job that
// reads r is announced or Materialize fetches it. A recipe rebuilds it
// and a coordinator copy seeds it; a job output is made again whole by
// re-running its job (recompute), which first restores the job's own
// input the same way, down to a recipe or a coordinator copy. A
// partition on a live worker stays put: reassignLocked only moves a dead
// worker's partitions. Returns how many partitions were lost — their
// owner died or a reduce consumed them; one never placed is put on its
// worker without counting — or a WorkerLostError when the restore fails.
func (cl *DistCluster) ensureResident(ctx context.Context, r *distResidency, name string) (int, error) {
	cl.mu.Lock()
	owners := cl.ownersForLocked(len(r.loc))
	var missing []int
	lost := 0
	for p, w := range r.loc {
		if w >= 0 && !cl.deadLocked(w) {
			continue
		}
		missing = append(missing, p)
		if w != locNowhere {
			lost++
		}
	}
	if len(missing) == 0 {
		cl.mu.Unlock()
		return 0, nil
	}
	if r.rerun != nil {
		cl.mu.Unlock()
		return lost, cl.recompute(ctx, r)
	}
	var seeds []move
	for _, p := range missing {
		if target := owners[p]; !cl.deadLocked(target) {
			// A dead target means no live worker is left; the announce
			// fails with "no live workers" before this matters.
			seeds = append(seeds, move{w: target, frame: r.seedFrame(p)})
			r.loc[p] = target
		}
	}
	cl.mu.Unlock()
	// Every seed to a live worker goes out, also after a write fails: the
	// record now names its target as the partition's home, and the retry
	// that follows the loss restores only what a dead worker was sent.
	var loss error
	for _, s := range seeds {
		if cl.isDead(s.w) {
			continue
		}
		if err := cl.conns[s.w].WriteFrame(s.frame); err != nil {
			cl.markDead(s.w, err)
			if loss == nil {
				loss = &WorkerLostError{Worker: s.w, Job: name,
					Err: fmt.Errorf("restoring a lost partition: %w", err)}
			}
		}
	}
	if loss != nil {
		return 0, loss
	}
	return lost, nil
}

// recompute makes every partition of a job output again: the job runs
// once more on the live workers (r.rerun), and its fresh output replaces
// r's partitions wholesale, under the re-run's sequence number — the
// survivors' copies under the old one are dropped. A job is deterministic
// given its input, so the fresh partitions are the lost ones bit for bit;
// a count that differs is a job that is not, and breaks the cluster.
// The re-run's wire bytes belong to the job or fetch whose restore asked
// for it, so the re-run's finish leaves the counters' snapshot as it was.
func (cl *DistCluster) recompute(ctx context.Context, r *distResidency) error {
	cl.mu.Lock()
	in0, out0 := cl.lastIn, cl.lastOut
	cl.mu.Unlock()
	fresh, err := r.rerun(ctx)
	cl.mu.Lock()
	cl.lastIn, cl.lastOut = in0, out0
	cl.mu.Unlock()
	if err != nil {
		return err
	}
	for p, n := range fresh.counts {
		if n != r.counts[p] {
			err := fmt.Errorf("mapreduce: recomputed partition %d holds %d records, the job made %d the first time (a dist job must be deterministic)", p, n, r.counts[p])
			cl.fail(err)
			return err
		}
	}
	cl.mu.Lock()
	old := r.seq
	r.seq, r.loc = fresh.seq, fresh.loc
	cl.mu.Unlock()
	cl.dropOnWorkers(old)
	return nil
}

// dropOnWorkers frees whatever the live workers hold under seq. Best
// effort: a worker that cannot be told is marked dead, and its copy dies
// with it.
func (cl *DistCluster) dropOnWorkers(seq uint64) {
	if cl.Err() != nil {
		return
	}
	frame := remote.AppendUvarint([]byte{byte(remote.MsgDrop)}, seq)
	for _, w := range cl.liveWorkers() {
		if err := cl.conns[w].WriteFrame(frame); err != nil {
			cl.markDead(w, fmt.Errorf("mapreduce: dropping resident dataset on worker %d: %w", w, err))
		}
	}
}

// move is one seed frame bound for worker w.
type move struct {
	w     int
	frame []byte
}

// markConsumed enforces the contract that a chained attempt's reduce
// phase consumes its input: a reduce owns its values, and a
// self-addressed value never left the worker, so it aliases the resident
// input record (GreedyMR compacts adjacency lists in place). Once a
// job's flush barrier has passed, every copy of r on a worker is suspect,
// so every partition is marked locConsumed — whether the job succeeded
// (its caller drops r, and only a recovery reads it again) or lost a
// worker (the retry restores r from its lineage). No frame is sent: the
// restore replaces a stale copy where it lies — a seed sheds it, a build
// overwrites it, a recompute drops the old sequence.
func (cl *DistCluster) markConsumed(r *distResidency) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for p := range r.loc {
		r.loc[p] = locConsumed
	}
}

// residencySnapshot copies r's sequence number and partition locations,
// for a fetch that must know which worker should stream each partition
// (a stale copy on a worker that lost the partition again must not
// shadow the current owner's).
func (cl *DistCluster) residencySnapshot(r *distResidency) (uint64, []int) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return r.seq, append([]int(nil), r.loc...)
}

// RecoveryStats is the cluster's cumulative fault-tolerance activity,
// as reported by DistCluster.RecoveryStats.
type RecoveryStats struct {
	// WorkersLost counts worker slots currently marked dead.
	WorkersLost int
	// Recoveries counts job attempts retried after a loss.
	Recoveries int64
	// Reseeded sums Stats.ReseededPartitions over the jobs that
	// succeeded: input partitions put on a new owner because their owner
	// died or an attempt that lost a worker consumed them.
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
	return reconnects, replayed
}

// setActiveJob hands the monitor the job in flight. The heartbeat floor
// resets with it: silence is measured from the announce, not from
// whenever the worker last happened to speak before the job existed.
func (cl *DistCluster) setActiveJob(j *distJobRun) {
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
// only — the verdict closes the worker's connection, and the worker's
// reader then runs the active job's own death path, so the monitor can
// never race a job into an inconsistent state nor wait on its barrier.
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
		// A participant that already delivered its MsgJobDone has a
		// per-job reader no longer draining its frames, so its LastRead
		// legitimately goes stale — silence there is not evidence of a
		// hang, and condemning the finished survivor of a round that is
		// waiting out a genuinely hung worker would leave no one to
		// retry on. A worker whose transport died but whose session is
		// inside the reconnect grace window is the resume layer's to
		// absorb: if the grace expires, the parked read surfaces its
		// transport error and the ordinary loss path takes over. Nor is
		// a worker whose reader is blocked relaying its bucket judged:
		// nobody reads it meanwhile, so its silence is no evidence —
		// the relay's target is the one to judge.
		if cl.isDead(w) || c.Recovering() {
			continue
		}
		since, ok := j.waitsOn(w)
		if !ok {
			continue
		}
		last := c.LastRead()
		if last.Before(floor) {
			last = floor
		}
		if last.Before(since) {
			last = since
		}
		if silent := now.Sub(last); silent > limit {
			cl.hbTimeouts.Add(1)
			// The verdict records the loss and closes the connection,
			// nothing more: w's reader sees the close and runs the
			// attempt's death path, whose flush may wait on another hung
			// worker — one the monitor must stay free to judge.
			cause := fmt.Errorf("mapreduce: dist worker %d heartbeat timeout (silent %v)", w, silent.Round(time.Millisecond))
			j.setLoss(w, cause)
			cl.markDead(w, cause)
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
		if healthy && !dead[w] {
			c.WriteFrame([]byte{byte(remote.MsgBye)})
		}
		c.Close()
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
	grace := 4 * distDrainTimeout
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

// distJobHeader is the decoded MsgJobStart, shared by both sides. The
// job's input is resident on the workers under inputSeq, in as many
// partitions as the job has reduce partitions.
type distJobHeader struct {
	seq      uint64
	name     string
	reducers int
	// state marks a state job (RunStateDS): the reduce registered under
	// the job's name must be a StateReduceFunc, which the workers join
	// with the resident input partitions they mapped.
	state bool
	// hashed marks an input cut into contiguous splits (runFlat), not
	// partitioned by key: the maps hash every pair, none takes the
	// identity route.
	hashed   bool
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

// The bits of the job header's flag byte.
const (
	headerState  = 1 << 0
	headerHashed = 1 << 1
)

func (h *distJobHeader) encode() []byte {
	buf := []byte{byte(remote.MsgJobStart)}
	buf = remote.AppendUvarint(buf, h.seq)
	buf = remote.AppendString(buf, h.name)
	buf = remote.AppendUvarint(buf, uint64(h.reducers))
	var flags byte
	if h.state {
		flags |= headerState
	}
	if h.hashed {
		flags |= headerHashed
	}
	buf = append(buf, flags)
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
// consumed). It accepts exactly what encode writes (FuzzJobHeader).
func parseJobHeader(cur *remote.Cursor) (*distJobHeader, error) {
	h := &distJobHeader{}
	h.seq = cur.Uvarint()
	h.name = cur.String()
	h.reducers = int(cur.Uvarint())
	flags := cur.Byte()
	h.state, h.hashed = flags&headerState != 0, flags&headerHashed != 0
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
	if flags&^(headerState|headerHashed) != 0 || len(cur.Rest()) > 0 {
		return nil, fmt.Errorf("mapreduce: malformed job-start: flags %#x, %d trailing bytes", flags, len(cur.Rest()))
	}
	return h, nil
}

// distWorkerReport aggregates what one worker told the coordinator
// about a job.
type distWorkerReport struct {
	groups     int64
	outRecords int64
	reduceWall time.Duration
	// pooled and misses are the worker's buffer-pool deltas over the job
	// (Stats.PooledBytes, Stats.PoolMisses).
	pooled, misses int64
	mapWall        time.Duration
	emitted        int64
	local          int64
	cross          int64
	counts         map[int]int64
	// sides is the side output of the worker's reduce tasks by partition
	// (see SideEmitter); nil when none emitted any.
	sides map[int][]uint64
}

// appendJobDone encodes the body of a MsgJobDone after its sequence
// number: reduce statistics, the worker's pool deltas, then per owned
// partition its resident record count and side output.
func appendJobDone(frame []byte, groups, outRecords int64, reduceWall time.Duration, pooled, misses int64,
	parts []int, counts []int64, sides [][]uint64) []byte {
	frame = remote.AppendUvarint(frame, uint64(groups))
	frame = remote.AppendUvarint(frame, uint64(outRecords))
	frame = remote.AppendUvarint(frame, uint64(reduceWall))
	frame = remote.AppendUvarint(frame, uint64(pooled))
	frame = remote.AppendUvarint(frame, uint64(misses))
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
	rep.pooled = int64(cur.Uvarint())
	rep.misses = int64(cur.Uvarint())
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
// Recovery: a worker that dies during the attempt (a transport error on
// its connection, seen by a reader or a writer, or the monitor's
// verdict) is marked dead and its loss recorded; nothing is cancelled.
// The flush barrier counts a dead worker as mapped, so the survivors are
// flushed, reduce what reached them and report MsgJobDone as on any
// attempt. finish then drops their output and returns the recorded
// WorkerLostError, and runDistDS retries the job with a reassigned
// partition map over an input restored from its lineage. A MsgError from
// any worker or a malformed frame breaks the cluster instead (fail-fast),
// since retrying a deterministic failure cannot help.
type distJobRun struct {
	cl        *DistCluster
	hdr       *distJobHeader
	bytesIn0  int64
	bytesOut0 int64
	// live is the set of workers the announce included — the workers
	// that received MsgJobStart and owe a MsgJobDone unless they die.
	live []int

	// readWG tracks the per-connection reader goroutines, started right
	// after the announce so heartbeats and worker traffic are consumed
	// (and health refreshed) for the whole attempt.
	readWG   sync.WaitGroup
	readErrs []error

	mu      sync.Mutex
	reports []distWorkerReport
	loss    *WorkerLostError
	// done holds the workers whose MsgJobDone arrived.
	done map[int]bool
	// unmapped holds the workers of the attempt that may still send
	// buckets: neither their MsgMapDone nor their death has been seen.
	// The flush barrier lifts when it empties.
	unmapped map[int]bool

	// relayMu orders every relay before the flush: a relay holds it
	// shared, the flush exclusively. flushed is written under it.
	relayMu sync.RWMutex
	flushed bool

	// relayed[w] is when worker w's reader last came back from a relay
	// (unix nanos), or relayBusy while a relay blocks it.
	relayed []atomic.Int64
}

const relayBusy = -1

// waitsOn reports whether the attempt still waits on worker w and reads
// it: w received the announce, has not delivered its MsgJobDone, and its
// reader is not blocked relaying one of w's buckets. since is when that
// reader last came back from a relay. The cluster monitor asks it.
func (j *distJobRun) waitsOn(w int) (since time.Time, ok bool) {
	j.mu.Lock()
	done := j.done[w]
	j.mu.Unlock()
	if done || !slices.Contains(j.live, w) {
		return time.Time{}, false
	}
	at := j.relayed[w].Load()
	if at == relayBusy {
		return time.Time{}, false
	}
	return time.Unix(0, at), true
}

// lost is the one death path of an attempt: worker w is marked dead, its
// loss recorded, and it no longer holds up the flush barrier. The
// attempt runs on.
func (j *distJobRun) lost(w int, cause error) {
	j.cl.markDead(w, cause)
	j.setLoss(w, cause)
	j.noteMapped(w)
}

// noteDone records that worker w delivered its full share of this
// attempt: it writes nothing more for the job, so monitor-side silence
// is expected, not evidence of a hang.
func (j *distJobRun) noteDone(w int) {
	j.mu.Lock()
	j.done[w] = true
	j.mu.Unlock()
}

// noteMapped records that worker w sends no more buckets — its
// MsgMapDone arrived or it died — and flushes once no worker of the
// attempt is left to send any. A worker sends all its buckets
// before its MsgMapDone and its reader relays them in order, so every
// relay from a live worker precedes the flush.
func (j *distJobRun) noteMapped(w int) {
	j.mu.Lock()
	last := j.unmapped[w] && len(j.unmapped) == 1
	delete(j.unmapped, w)
	j.mu.Unlock()
	if last {
		j.flushAll()
	}
}

// startDistJob resolves the two pair codecs (a type without one fails
// here, before any worker hears of the job), snapshots the live worker
// set and the partition assignment into the job header, and announces
// the job to every live worker.
func startDistJob[K2 comparable, V2 any, K3 comparable, V3 any](
	cfg Config, inputSeq uint64, state, hashed bool,
) (*distJobRun, error) {
	cl := cfg.Dist
	if err := cl.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: dist cluster is broken: %w", err)
	}
	if _, err := pairCodecFor[K2, V2](); err != nil {
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
	j := &distJobRun{
		cl: cl,
		hdr: &distJobHeader{
			seq:      cl.nextSeq(),
			name:     cfg.Name,
			reducers: cfg.reducers(),
			state:    state,
			hashed:   hashed,
			inputSeq: inputSeq,
			owners:   owners,
			k2id:     distTypeID[K2](),
			v2id:     distTypeID[V2](),
			k3id:     distTypeID[K3](),
			v3id:     distTypeID[V3](),
			params:   cfg.DistParams,
		},
		live:     live,
		reports:  make([]distWorkerReport, cl.Workers()),
		done:     make(map[int]bool, len(live)),
		unmapped: make(map[int]bool, len(live)),
		relayed:  make([]atomic.Int64, cl.Workers()),
	}
	for _, w := range live {
		j.unmapped[w] = true
	}
	cl.mu.Lock()
	j.bytesIn0, j.bytesOut0 = cl.lastIn, cl.lastOut
	cl.mu.Unlock()
	frame := j.hdr.encode()
	for _, w := range live {
		err := cl.conns[w].WriteFrame(frame)
		if err == nil || !cl.noteDead(w) {
			continue
		}
		// No reader owns the connection yet: look for a parting MsgError,
		// a deterministic failure. A silent death is a loss like any
		// other, and the announce goes on to the other workers.
		if msg := cl.drainFatal(w); msg != "" {
			err := fmt.Errorf("mapreduce: dist job %q: worker %d: %s", cfg.Name, w, msg)
			cl.fail(err)
			return nil, err
		}
		cl.conns[w].Close()
		j.setLoss(w, fmt.Errorf("announcing: %w", err))
	}
	// Readers start at the announce, one per included worker: worker
	// traffic (heartbeats above all) is consumed — and worker health
	// refreshed — for the whole life of the attempt. A worker the
	// announce lost finds its
	// connection closed at once. The monitor watches the attempt from
	// here until finish clears it.
	j.readErrs = make([]error, cl.Workers())
	for _, w := range live {
		j.readWG.Add(1)
		go func() {
			defer j.readWG.Done()
			if err := j.reader(w); err != nil {
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

// setLoss latches the first worker loss of the attempt.
func (j *distJobRun) setLoss(w int, cause error) {
	j.mu.Lock()
	if j.loss == nil {
		j.loss = &WorkerLostError{Worker: w, Job: j.hdr.name, Err: cause}
	}
	j.mu.Unlock()
}

// lossErr returns the latched loss, or nil when no worker was lost.
func (j *distJobRun) lossErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.loss == nil {
		return nil
	}
	return j.loss
}

// flushAll tells every live worker of the attempt that ingestion is
// sealed, once. A worker the flush cannot reach is lost; the barrier
// has nothing left to wait for, so the loss does not re-enter it.
func (j *distJobRun) flushAll() {
	j.relayMu.Lock()
	defer j.relayMu.Unlock()
	if j.flushed {
		return
	}
	j.flushed = true
	frame := remote.AppendUvarint([]byte{byte(remote.MsgFlush)}, j.hdr.seq)
	for _, w := range j.live {
		if j.cl.isDead(w) {
			continue
		}
		if err := j.cl.conns[w].WriteFrame(frame); err != nil {
			cause := fmt.Errorf("flushing: %w", err)
			j.cl.markDead(w, cause)
			j.setLoss(w, cause)
		}
	}
}

// relay forwards a bucket frame verbatim to its partition's
// owner: the frame format is identical in both directions, so the relay
// is a single WriteFrame with no re-encoding. A relay the flush has
// overtaken comes from a worker that died before its MsgMapDone (see
// noteMapped), in an attempt that is lost anyway: it is dropped.
func (j *distJobRun) relay(owner int, payload []byte) error {
	j.relayMu.RLock()
	defer j.relayMu.RUnlock()
	if j.flushed {
		return nil
	}
	return j.cl.conns[owner].WriteFrame(payload)
}

// reader consumes one worker's frames for this attempt until its
// MsgJobDone or its death (nil), or a deterministic failure (the error).
func (j *distJobRun) reader(w int) error {
	conn := j.cl.conns[w]
	for {
		payload, err := conn.ReadFrame()
		if err != nil {
			conn.Close() // a failed read may leave it open
			j.lost(w, fmt.Errorf("transport error: %w", err))
			return nil
		}
		cur := remote.NewCursor(payload)
		switch t := remote.MsgType(cur.Byte()); t {
		case remote.MsgBucket:
			seq := cur.Uvarint()
			cur.Uvarint() // split
			part := int(cur.Uvarint())
			if err := cur.Err(); err != nil || seq != j.hdr.seq ||
				part < 0 || part >= j.hdr.reducers {
				return fmt.Errorf("mapreduce: dist job %q: malformed bucket relay from worker %d", j.hdr.name, w)
			}
			owner := j.hdr.owners[part]
			j.relayed[w].Store(relayBusy)
			err := j.relay(owner, payload)
			j.relayed[w].Store(time.Now().UnixNano())
			if err != nil {
				// The relay target died, not this worker: keep reading.
				j.lost(owner, fmt.Errorf("relaying bucket: %w", err))
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
				return fmt.Errorf("mapreduce: dist job %q: malformed map-done from worker %d", j.hdr.name, w)
			}
			j.noteMapped(w)
		case remote.MsgJobDone:
			cur.Uvarint() // seq
			if err := parseJobDone(cur, j.hdr.reducers, &j.reports[w]); err != nil {
				return fmt.Errorf("mapreduce: dist job %q: malformed job-done from worker %d: %w", j.hdr.name, w, err)
			}
			j.noteDone(w)
			return nil
		case remote.MsgError:
			cur.Uvarint() // seq
			return fmt.Errorf("mapreduce: dist job %q: worker %d: %s", j.hdr.name, w, cur.String())
		default:
			return fmt.Errorf("mapreduce: dist job %q: unexpected %v from worker %d", j.hdr.name, t, w)
		}
	}
}

// finish drives the attempt to its end: it waits for the per-connection
// readers startDistJob launched at the announce, and aggregates the
// worker reports into stats. Success here is the one place an attempt's
// results — resident counts, side output — are accepted. An attempt that
// lost a worker ran to its end on the survivors: finish drops what they
// made and returns the loss.
func (j *distJobRun) finish(ctx context.Context, stats *Stats) (*distJobResult, error) {
	defer j.cl.clearActiveJob()
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

	j.readWG.Wait()
	close(watchDone)
	watchWG.Wait()

	for _, err := range j.readErrs {
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
	if loss := j.lossErr(); loss != nil {
		j.cl.dropOnWorkers(j.hdr.seq)
		return nil, loss
	}

	// Aggregate the worker reports.
	res := &distJobResult{counts: make([]int64, j.hdr.reducers)}
	var workerWall time.Duration
	for w := range j.reports {
		rep := &j.reports[w]
		stats.ReduceGroups += rep.groups
		stats.ReduceOutputRecords += rep.outRecords
		stats.PooledBytes += rep.pooled
		stats.PoolMisses += rep.misses
		stats.addMapOutput(rep.emitted)
		stats.addRouted(rep.local, rep.cross)
		stats.ShuffleRecords += rep.local + rep.cross
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
	}
	stats.WorkerWall = workerWall
	in, out := j.cl.bytesInOut()
	stats.RemoteBytesIn = in - j.bytesIn0
	stats.RemoteBytesOut = out - j.bytesOut0
	j.cl.mu.Lock()
	j.cl.lastIn, j.cl.lastOut = in, out
	j.cl.mu.Unlock()
	return res, nil
}

// distJobResult is what a successful attempt hands back, per partition:
// resident count and side output.
type distJobResult struct {
	counts []int64
	sides  [][]uint64
}

// schedSnapshot brackets one logical job's monitor and durability
// activity: deltas of the cluster counters across all its attempts.
type schedSnapshot struct {
	hb0, rc0, fr0 int64
}

func (s *schedSnapshot) start(cl *DistCluster) {
	s.hb0 = cl.hbTimeouts.Load()
	s.rc0, s.fr0 = cl.resumeTotals()
}

func (s *schedSnapshot) settle(cl *DistCluster, as *Stats) {
	as.HeartbeatTimeouts = cl.hbTimeouts.Load() - s.hb0
	rc, fr := cl.resumeTotals()
	as.WorkerReconnects = rc - s.rc0
	as.FramesReplayed = fr - s.fr0
}

// runDistDS executes one job on the dist backend (execJob's dist half),
// retrying the whole job when an attempt dies to worker loss. The input
// (in) is worker-resident and mapped by the workers; it is restored
// before every attempt from its lineage (ensureResident). Each attempt
// runs against scratch stats; only the successful attempt's numbers
// merge into the caller's, so retried work is invisible everywhere
// except Stats.WorkerRecoveries. The output's record can run the job
// again over in for a later recovery.
func runDistDS[K2 comparable, V2 any, K3 comparable, V3 any](
	ctx context.Context,
	cfg Config,
	in *distResidency,
	state, hashed bool,
	stats *Stats,
) (*Dataset[K3, V3], error) {
	cl := cfg.Dist
	var sched schedSnapshot
	sched.start(cl)
	for attempt := 0; ; attempt++ {
		// Move dead workers' partitions; ensureResident restores the
		// data the new assignment calls for.
		cl.recoverAssignments()
		as := newStats(cfg.Name)
		out, err := tryDistDS[K2, V2, K3, V3](ctx, cfg, in, state, hashed, as)
		if err == nil {
			as.WorkerRecoveries = int64(attempt)
			sched.settle(cl, as)
			stats.Add(as)
			cl.reseeded.Add(as.ReseededPartitions)
			out.rem.rerun = func(ctx context.Context) (*distResidency, error) {
				again, err := tryDistDS[K2, V2, K3, V3](ctx, cfg, in, state, hashed, newStats(cfg.Name))
				// The re-run consumed its input, and only another
				// recovery reads it again.
				cl.dropOnWorkers(in.seq)
				cl.releaseResident(in)
				if err != nil {
					return nil, err
				}
				return again.rem, nil
			}
			cl.registerResident(out.rem)
			return out, nil
		}
		if !isWorkerLost(err) || !cl.retryAfterLoss(attempt) {
			return nil, err
		}
		cl.recoveries.Add(1)
	}
}

// tryDistDS is one job attempt: the workers map their partitions of the
// input, so self-addressed pairs never touch the wire, and the output
// stays worker-resident (the returned Dataset holds its residency
// record, not records).
func tryDistDS[K2 comparable, V2 any, K3 comparable, V3 any](
	ctx context.Context,
	cfg Config,
	in *distResidency,
	state, hashed bool,
	stats *Stats,
) (*Dataset[K3, V3], error) {
	cl := cfg.Dist
	phase := time.Now()
	// Put back what a dead owner or a lost attempt's reduce took before
	// announcing the job that reads it.
	reseeded, err := cl.ensureResident(ctx, in, cfg.Name)
	if err != nil {
		return nil, err
	}
	stats.ReseededPartitions = int64(reseeded)
	job, err := startDistJob[K2, V2, K3, V3](cfg, in.seq, state, hashed)
	if err != nil {
		return nil, err
	}
	// The workers' map phase is observed by the readers in finish,
	// through MsgMapDone and the flush barrier.
	res, err := job.finish(ctx, stats)
	stats.ReduceWall = time.Since(phase)
	if err == nil || isWorkerLost(err) {
		// An attempt that succeeds or loses a worker was flushed: the
		// survivors' reduce consumed the input either way.
		cl.markConsumed(in)
	}
	if err != nil {
		return nil, err
	}
	rec := &distResidency{cl: cl, seq: job.hdr.seq, loc: job.hdr.owners, counts: res.counts}
	return newRemoteDataset[K3, V3](rec, res.sides, keyCast[K2, K3]() != nil, cfg.Pool), nil
}

// newRemoteDataset wraps a worker-resident Dataset's record.
func newRemoteDataset[K comparable, V any](r *distResidency, sides [][]uint64, aligned bool, pool *BufferPool) *Dataset[K, V] {
	return &Dataset[K, V]{
		parts:   make([][]Pair[K, V], len(r.counts)),
		aligned: aligned,
		pool:    pool,
		rem:     r,
		side:    sides,
	}
}

// runOnWorkers executes one job on the dist backend: the workers that
// hold its input map it. An input the cluster does not hold is placed
// there first (placeResident) and released after the job; its
// coordinator copy stays the root of the output's lineage. hashed marks
// an input cut into contiguous splits rather than partitioned by key
// (runFlat): its maps hash every pair.
func runOnWorkers[K1 comparable, V1 any, K2 comparable, V2 any, K3 comparable, V3 any](
	ctx context.Context,
	cfg Config,
	input *Dataset[K1, V1],
	state, hashed bool,
) (*Dataset[K3, V3], *Stats, error) {
	stats := newStats(cfg.Name)
	if err := checkKeys[K2, K3](); err != nil {
		return nil, stats, err
	}
	cl := cfg.Dist
	if cl == nil {
		return nil, stats, errors.New("mapreduce: shuffle backend \"dist\" requires Config.Dist (a started DistCluster)")
	}
	if input.rem == nil || input.rem.cl != cl {
		if err := input.Materialize(); err != nil {
			return nil, stats, err
		}
		placed, err := placeResident(cl, input, cfg)
		if err != nil {
			return nil, stats, err
		}
		defer placed.Recycle()
		input = placed
	}
	stats.MapInputRecords = int64(input.Len())
	defer stats.snapPool(cfg.Pool)()
	out, err := runDistDS[K2, V2, K3, V3](ctx, cfg, input.rem, state, hashed, stats)
	return out, stats, err
}

// placeResident puts a coordinator-held input on the cluster: encode
// every partition into the coordinator's copy and register the Dataset as
// resident nowhere yet (locNowhere) — the job that consumes it has
// ensureResident seed each partition to its owner (a seed, not a
// recovery: nothing counts as reseeded). The copy stays with the record,
// the root of every output's lineage that descends from it.
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
	rec := &distResidency{cl: cl, seq: cl.nextSeq(), loc: owners, counts: counts, blobs: blobs}
	cl.registerResident(rec)
	return newRemoteDataset[K, V](rec, nil, ds.aligned, cfg.Pool), nil
}

// Materialize moves a worker-resident Dataset's records to the caller:
// every partition is fetched from its owning worker and the residency is
// released (the workers drop their copies). A partition whose owner died
// before or during the fetch is first put back on a live worker the way
// a job's input is (ensureResident) and then fetched from there. A no-op
// for local Datasets. Record access (Collect, Each, Part, MapValues)
// requires a materialized Dataset; in-repo algorithms call Materialize
// explicitly after every job whose output they read driver-side, so
// fetch errors surface as errors rather than panics.
func (d *Dataset[K, V]) Materialize() error {
	if d.rem == nil {
		return nil
	}
	rem := d.rem
	cl := rem.cl
	if err := cl.Err(); err != nil {
		return fmt.Errorf("mapreduce: materializing dataset: dist cluster is broken: %w", err)
	}
	pc, err := pairCodecFor[K, V]()
	if err != nil {
		return fmt.Errorf("mapreduce: materializing dataset: %w", err)
	}
	var lost error
	for round := 0; ; round++ {
		if err := d.fetchResident(pc); err != nil {
			lost = err
		}
		holes := false
		for p := range d.parts {
			holes = holes || d.parts[p] == nil && rem.counts[p] != 0
		}
		if !holes {
			break
		}
		if round >= len(cl.conns) {
			if lost == nil {
				lost = errors.New("mapreduce: materializing dataset: no live worker holds a partition")
			}
			return lost
		}
		cl.recoverAssignments()
		if _, err := cl.ensureResident(context.Background(), rem, "materialize"); err != nil {
			if !isWorkerLost(err) {
				return err
			}
			lost = err
		}
	}
	cl.releaseResident(rem)
	d.rem = nil
	return nil
}

// fetchResident fetches, from every live worker that owns one, each
// partition of the Dataset it does not hold yet. One fetch per
// connection, concurrently: the workers own disjoint partitions and each
// connection has its own reader, so the materialization wall is the
// slowest worker's transfer, not the sum — this sits on the per-round
// critical path of every algorithm that folds job output driver-side. A
// worker the fetch fails on is marked dead, and the error returned.
func (d *Dataset[K, V]) fetchResident(pc *pairCodec[K, V]) error {
	cl := d.rem.cl
	seq, loc := cl.residencySnapshot(d.rem)
	fetch := remote.AppendUvarint([]byte{byte(remote.MsgFetch)}, seq)
	// A live worker that owns nothing to fetch (all its partitions are
	// here) is skipped.
	owned := make(map[int]bool, len(cl.conns))
	for p, w := range loc {
		if d.parts[p] == nil {
			owned[w] = true
		}
	}
	errs := make([]error, len(cl.conns))
	var wg sync.WaitGroup
	for _, w := range cl.liveWorkers() {
		if !owned[w] {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := d.fetchFrom(cl.conns[w], w, loc, fetch, pc); err != nil {
				errs[w] = fmt.Errorf("mapreduce: fetching resident partitions from worker %d: %w", w, err)
				cl.markDead(w, errs[w])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return &WorkerLostError{Worker: -1, Job: "materialize", Err: err}
		}
	}
	return nil
}

// fetchFrom drains one worker's resident partitions for this dataset.
// loc (the record's partition locations) gates acceptance: only the
// current owner's copy of a partition is installed, and only where the
// Dataset has none yet.
func (d *Dataset[K, V]) fetchFrom(conn *remote.Conn, w int, loc []int, fetch []byte, pc *pairCodec[K, V]) error {
	if err := conn.WriteFrame(fetch); err != nil {
		return err
	}
	// Rolling read deadline: a gray-failed worker (socket open, no
	// frames) must not hang materialization forever — on timeout the
	// caller marks it dead and its partitions are restored elsewhere.
	timeout := d.rem.cl.replyTimeout
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
			if loc[part] != w || d.parts[part] != nil {
				continue // stale copy from a previous assignment, or fetched already
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
// workers (Recycle's remote half). The record leaves the cluster's set,
// but lives on while a child's lineage needs it.
func (d *Dataset[K, V]) dropResident() {
	rem := d.rem
	d.rem = nil
	if rem == nil {
		return
	}
	rem.cl.releaseResident(rem)
	rem.cl.dropOnWorkers(rem.seq)
}
