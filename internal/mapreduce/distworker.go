package mapreduce

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapreduce/remote"
)

// This file is the worker half of the distributed execution mode: the
// job registry, the serve loop a worker process runs, and the per-job
// handler that ingests buckets, group-sorts each owned partition with
// the same radix path the in-memory backend uses, runs the registered
// reduce function, and keeps the output resident for the next chained
// job or a fetch. Function values cannot travel, so
// a worker runs the map/reduce functions registered under the job's
// name — for jobs whose functions close over driver-side round state,
// the registered factory rebuilds them from the job's parameter blob
// (Config.DistParams).

// DistJob is one registered job's worker-side behavior.
type DistJob[K1 comparable, V1 any, K2 comparable, V2 any, K3 comparable, V3 any] struct {
	// Map is required only for chained consumption of a worker-resident
	// input (the partition-resident fast path); jobs whose map phase
	// always runs on the coordinator leave it nil.
	Map MapFunc[K1, V1, K2, V2]
	// Reduce runs over every owned partition's key groups. Required,
	// unless the job is a state job.
	Reduce ReduceFunc[K2, V2, K3, V3]
	// StateReduce takes Reduce's place in a state job (RunStateDS), which
	// also needs Map — it is always mapped where its input resides — and
	// K1 = K2.
	StateReduce StateReduceFunc[K2, V1, V2, K3, V3]
}

// distJobRunner is the untyped face of a registered job.
type distJobRunner interface {
	run(s *workerSession, h *distJobHeader) error
}

var distJobs = struct {
	mu sync.RWMutex
	m  map[string]func(params []byte) (distJobRunner, error)
}{m: make(map[string]func(params []byte) (distJobRunner, error))}

// RegisterDistJob registers the worker-side functions for every dist
// job named `name` (Config.Name). The factory runs once per job
// execution with the job's parameter blob, so reduces that close over
// per-round driver state rebuild it here. Registration is process-wide
// and the last registration for a name wins — a worker process serves
// one computation at a time. Coordinators don't need registrations;
// only the processes that serve (ServeDistWorker) do, which for the
// self-exec CLIs is the re-executed binary.
func RegisterDistJob[K1 comparable, V1 any, K2 comparable, V2 any, K3 comparable, V3 any](
	name string,
	factory func(params []byte) (DistJob[K1, V1, K2, V2, K3, V3], error),
) {
	distJobs.mu.Lock()
	defer distJobs.mu.Unlock()
	distJobs.m[name] = func(params []byte) (distJobRunner, error) {
		job, err := factory(params)
		if err != nil {
			return nil, fmt.Errorf("building job %q: %w", name, err)
		}
		if (job.Reduce == nil) == (job.StateReduce == nil) {
			return nil, fmt.Errorf("job %q must be registered with either a reduce or a state reduce function", name)
		}
		return &distWorkerJob[K1, V1, K2, V2, K3, V3]{job: job}, nil
	}
}

// RegisterDistReduce registers a parameter-free, reduce-only job: the
// common case for reduces that capture nothing (or only immutable
// shared inputs). Such jobs cannot consume a worker-resident input
// chained (no map function); their map phase always runs on the
// coordinator.
func RegisterDistReduce[K2 comparable, V2 any, K3 comparable, V3 any](
	name string, reduce ReduceFunc[K2, V2, K3, V3],
) {
	RegisterDistJob(name, func([]byte) (DistJob[K3, V3, K2, V2, K3, V3], error) {
		return DistJob[K3, V3, K2, V2, K3, V3]{Reduce: reduce}, nil
	})
}

func lookupDistJob(name string, params []byte) (distJobRunner, error) {
	distJobs.mu.RLock()
	factory, ok := distJobs.m[name]
	distJobs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no dist job registered as %q (workers run registered functions; see RegisterDistJob)", name)
	}
	return factory(params)
}

// residentSet is one retained job output, typed underneath.
type residentSet interface {
	fetch(conn *remote.Conn, seq uint64) error
	drop()
	// shed releases one partition the coordinator marked consumed
	// (MsgShed): the copy here is superseded, keeping it would serve
	// stale data if this worker were ever asked for it.
	shed(part int)
}

// residentData retains one job's reduce output per owned partition
// between jobs.
type residentData[K comparable, V any] struct {
	parts [][]Pair[K, V]
	pc    *pairCodec[K, V]
	ar    *roundArena[K, V]
}

// fetch streams every retained partition and releases it (fetch moves;
// the coordinator's Materialize owns the records afterwards).
func (r *residentData[K, V]) fetch(conn *remote.Conn, seq uint64) error {
	fs := getFrameScratch()
	defer putFrameScratch(fs)
	for p, pairs := range r.parts {
		if pairs == nil {
			continue
		}
		frame := append(fs.b[:0], byte(remote.MsgPart))
		frame = remote.AppendUvarint(frame, seq)
		frame = remote.AppendUvarint(frame, uint64(p))
		frame = remote.AppendUvarint(frame, uint64(len(pairs)))
		frame, err := encodePairs(frame, pairs, r.pc)
		if err != nil {
			return fmt.Errorf("encoding resident partition %d: %w", p, err)
		}
		fs.b = frame
		if err := conn.WriteFrame(frame); err != nil {
			return err
		}
	}
	r.drop()
	return conn.WriteFrame(remote.AppendUvarint([]byte{byte(remote.MsgFetchDone)}, seq))
}

// drop recycles the retained partition buffers.
func (r *residentData[K, V]) drop() {
	for p, pairs := range r.parts {
		if pairs != nil {
			r.ar.putPairs(p, pairs)
		}
	}
	r.parts = nil
}

// shed releases a single superseded partition.
func (r *residentData[K, V]) shed(part int) {
	if part >= 0 && part < len(r.parts) && r.parts[part] != nil {
		r.ar.putPairs(part, r.parts[part])
		r.parts[part] = nil
	}
}

// chainedInput resolves a chained job's worker-resident input,
// installing any re-seeded partitions (MsgSeed blobs held by the
// session) first. A worker that retained nothing for the sequence — a
// late joiner, or a survivor that only now inherited partitions —
// starts from an empty set and fills it from its seeds.
func chainedInput[K1 comparable, V1 any](s *workerSession, h *distJobHeader) (*residentData[K1, V1], error) {
	rd, err := residentFor[K1, V1](s, h.inputSeq, h.splits)
	if err != nil {
		return nil, fmt.Errorf("job %q: %w", h.name, err)
	}
	for part, sb := range s.seeds[h.inputSeq] {
		if part >= len(rd.parts) {
			return nil, fmt.Errorf("job %q: seed for partition %d of %d", h.name, part, len(rd.parts))
		}
		if rd.parts[part] != nil {
			continue // the local copy is authoritative
		}
		pairs, err := decodePairs(remote.NewCursor(sb.blob), sb.count, rd.pc,
			rd.ar.getPairs(part, sb.count))
		if err != nil {
			return nil, fmt.Errorf("job %q: decoding seeded partition %d: %w", h.name, part, err)
		}
		rd.parts[part] = pairs
	}
	delete(s.seeds, h.inputSeq)
	return rd, nil
}

// residentFor returns the session's resident set of job or Dataset seq,
// creating an empty one of parts partitions when it holds none yet.
func residentFor[K comparable, V any](s *workerSession, seq uint64, parts int) (*residentData[K, V], error) {
	if ent, ok := s.resident[seq]; ok {
		rd, ok := ent.(*residentData[K, V])
		if !ok || len(rd.parts) != parts {
			return nil, fmt.Errorf("resident input %d has a different type or partition count", seq)
		}
		return rd, nil
	}
	pc, err := pairCodecFor[K, V]()
	if err != nil {
		return nil, fmt.Errorf("resident input %w", err)
	}
	rd := &residentData[K, V]{
		parts: make([][]Pair[K, V], parts),
		pc:    pc,
		ar:    arenaFor[K, V](s.pool, parts),
	}
	s.resident[seq] = rd
	return rd, nil
}

// seedBlob is one re-seeded partition awaiting its consuming job: the
// raw encodePairs image the coordinator mirrored from a checkpoint
// frame, decoded lazily when the chained job that reads it starts (the
// session doesn't know the partition's types until then).
type seedBlob struct {
	count int
	blob  []byte
}

// workerSession is one worker process's connection-lifetime state.
type workerSession struct {
	conn     *remote.Conn
	id       int
	workers  int
	pool     *BufferPool
	resident map[uint64]residentSet
	// seeds holds re-seeded partitions by producing-job sequence, then
	// partition (MsgSeed, sent ahead of the job that consumes them).
	seeds map[uint64]map[int]seedBlob
	// builds counts the partitions being built (MsgBuild), builders
	// holds the builder each Dataset being built got, and built collects
	// the steps that install finished partitions, which only the serve
	// loop runs: it alone touches resident.
	builds   sync.WaitGroup
	builders map[uint64]distBuilder
	buildMu  sync.Mutex
	built    []func(*workerSession) error
	// aborted records job sequences this session acknowledged an abort
	// for: bucket/flush frames already in flight for those sequences
	// keep arriving after the MsgAborted ack and must be ignored, not
	// treated as protocol errors. Bounded by the number of worker
	// deaths the cluster survives.
	aborted map[uint64]bool
}

// errJobAborted is the sentinel a job handler returns when the
// coordinator aborted the job mid-flight: the session acked the abort
// and is ready for the next announce — not an error.
var errJobAborted = fmt.Errorf("dist job aborted by coordinator")

// ackAbort records the aborted sequence and sends the MsgAborted ack —
// the last frame this session emits for that sequence.
func (s *workerSession) ackAbort(seq uint64) error {
	s.aborted[seq] = true
	return s.conn.WriteFrame(remote.AppendUvarint([]byte{byte(remote.MsgAborted)}, seq))
}

// ReconnectPolicy shapes a worker's redial behavior, both for the
// initial connect (a worker started before its coordinator retries
// until the listener appears) and for session resume after a transport
// loss mid-run.
type ReconnectPolicy struct {
	// Attempts is the redial budget per outage. Zero means the default
	// (8); negative disables reconnection entirely — the worker
	// advertises no resume capability and dies with its first transport
	// error, the pre-resume behavior.
	Attempts int
	// BaseDelay and MaxDelay bound the jittered exponential backoff
	// between attempts (defaults 50ms and 1s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (p ReconnectPolicy) attempts() int {
	if p.Attempts == 0 {
		return 8
	}
	return p.Attempts
}

// DistWorkerOptions tunes one worker session (ServeDistWorkerOpts).
type DistWorkerOptions struct {
	// Fault, when non-nil, arms a deterministic fault on this worker's
	// endpoint once the handshake completes, so its frame indices count
	// job traffic only. Test instrumentation for in-process workers —
	// the gray-failure (stall) chaos tests hang a worker from the
	// inside, where the coordinator cannot see a transport error.
	Fault *remote.Fault
	// Reconnect shapes the worker's startup connect retries and its
	// session-resume redials. The zero value enables both with the
	// defaults; Attempts < 0 disables resume (the session dies with its
	// first transport error) and limits the startup dial to one try.
	Reconnect ReconnectPolicy
}

// ServeDistWorker connects to a coordinator and serves jobs until the
// coordinator says goodbye (clean nil return) or the session fails. It
// is the main loop of a worker process — the self-exec CLIs call it in
// worker mode — and is equally happy on a goroutine for in-process
// tests. Cancelling ctx closes the connection and ends the session.
func ServeDistWorker(ctx context.Context, addr string) error {
	return ServeDistWorkerOpts(ctx, addr, DistWorkerOptions{})
}

// ServeDistWorkerOpts is ServeDistWorker with session options.
func ServeDistWorkerOpts(ctx context.Context, addr string, opts DistWorkerOptions) error {
	resumeCapable := opts.Reconnect.Attempts >= 0
	seed := uint64(os.Getpid())
	nc, err := dialWithRetry(ctx, addr, opts.Reconnect, seed)
	if err != nil {
		return fmt.Errorf("mapreduce: dist worker dialing %s: %w", addr, err)
	}
	conn := remote.NewConn(nc)
	defer conn.Close()
	if err := remote.Hello(conn, resumeCapable); err != nil {
		return fmt.Errorf("mapreduce: dist worker handshake: %w", err)
	}
	info, err := remote.AwaitWelcome(conn)
	if err != nil {
		return fmt.Errorf("mapreduce: dist worker handshake: %w", err)
	}
	if info.Resume {
		// The coordinator granted a resumable session: from here on a
		// transport loss redials and re-attaches instead of ending the
		// session, transparently to the serve loop below.
		conn.EnableResume(remote.ResumeConfig{
			Token:     info.Token,
			WorkerID:  info.WorkerID,
			Dial:      func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) },
			Attempts:  opts.Reconnect.attempts(),
			BaseDelay: opts.Reconnect.BaseDelay,
			MaxDelay:  opts.Reconnect.MaxDelay,
			Seed:      seed,
		})
	}
	if opts.Fault != nil {
		conn.Arm(opts.Fault)
	}
	if ctx != nil {
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				conn.Close()
			case <-watchDone:
			}
		}()
	}
	s := &workerSession{
		conn:     conn,
		id:       info.WorkerID,
		workers:  info.NumWorkers,
		pool:     NewBufferPool(),
		resident: make(map[uint64]residentSet),
		seeds:    make(map[uint64]map[int]seedBlob),
		builders: make(map[uint64]distBuilder),
		aborted:  make(map[uint64]bool),
	}
	if info.HeartbeatEvery > 0 {
		// Pongs on the announced interval, from a dedicated goroutine:
		// the read loops below are busy or blocked during a job, but
		// liveness must keep flowing coordinator-ward — a worker deep in
		// a long reduce is slow, not dead, and the monitor can only know
		// that if pongs keep arriving. They ride WritePulse so
		// heartbeats never perturb seeded fault-injection frame counts.
		hbStop := make(chan struct{})
		defer close(hbStop)
		go func() {
			t := time.NewTicker(info.HeartbeatEvery)
			defer t.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-t.C:
					if conn.WritePulse([]byte{byte(remote.MsgPong)}) != nil {
						return
					}
				}
			}
		}()
	}
	return s.serve()
}

// dialWithRetry dials the coordinator, retrying with the policy's
// jittered backoff while the listener isn't there yet — a worker
// process may legitimately start before its coordinator. Connection
// refusals and timeouts retry; an exhausted budget returns the last dial
// error. A cancelled context (ctx may be nil) returns ctx.Err() at once,
// mid-backoff or mid-dial.
func dialWithRetry(ctx context.Context, addr string, pol ReconnectPolicy, seed uint64) (net.Conn, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := pol.attempts()
	if attempts < 1 {
		attempts = 1
	}
	dialer := net.Dialer{Timeout: 5 * time.Second}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			wait := time.NewTimer(remote.Backoff(a-1, pol.BaseDelay, pol.MaxDelay, seed))
			select {
			case <-wait.C:
			case <-ctx.Done():
				wait.Stop()
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		nc, err := dialer.DialContext(ctx, "tcp", addr)
		if err == nil {
			return nc, nil
		}
		lastErr = err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return nil, lastErr
}

// sendError best-effort reports a fatal job error before the session
// ends; the coordinator surfaces it verbatim.
func (s *workerSession) sendError(seq uint64, err error) {
	frame := remote.AppendUvarint([]byte{byte(remote.MsgError)}, seq)
	frame = remote.AppendString(frame, err.Error())
	s.conn.WriteFrame(frame)
}

func (s *workerSession) serve() error {
	defer s.builds.Wait()
	for {
		payload, err := s.conn.ReadFrame()
		if err != nil {
			// The coordinator hanging up without a goodbye usually means
			// it failed; the worker just winds down.
			return nil
		}
		cur := remote.NewCursor(payload)
		t := remote.MsgType(cur.Byte())
		if t != remote.MsgBuild {
			// Whatever comes next may read, drop or replace a partition
			// being built: finish and install the builds first.
			if err := s.awaitBuilds(); err != nil {
				s.sendError(0, err)
				return fmt.Errorf("mapreduce: dist worker: %w", err)
			}
		}
		switch t {
		case remote.MsgBuild:
			if seq, err := s.startBuild(cur); err != nil {
				s.sendError(seq, err)
				return fmt.Errorf("mapreduce: dist worker: %w", err)
			}
		case remote.MsgJobStart:
			h, err := parseJobHeader(cur)
			if err != nil {
				s.sendError(0, err)
				return err
			}
			runner, err := lookupDistJob(h.name, h.params)
			if err != nil {
				s.sendError(h.seq, err)
				return fmt.Errorf("mapreduce: dist worker: %w", err)
			}
			if err := runner.run(s, h); err != nil {
				if err == errJobAborted {
					continue // ack already sent; await the retry announce
				}
				s.sendError(h.seq, err)
				return fmt.Errorf("mapreduce: dist worker: job %q: %w", h.name, err)
			}
		case remote.MsgSeed:
			// A recovered partition, re-homed here ahead of the job that
			// consumes it. Kept as the raw blob: the types arrive with
			// that job's header.
			seq := cur.Uvarint()
			part := int(cur.Uvarint())
			count := int(cur.Uvarint())
			if err := cur.Err(); err != nil || part < 0 {
				err := fmt.Errorf("malformed seed frame")
				s.sendError(seq, err)
				return fmt.Errorf("mapreduce: dist worker: %w", err)
			}
			blob := cur.Rest()
			if blob == nil {
				blob = []byte{}
			}
			m := s.seeds[seq]
			if m == nil {
				m = make(map[int]seedBlob)
				s.seeds[seq] = m
			}
			m[part] = seedBlob{count: count, blob: blob}
		case remote.MsgAbort:
			// An abort can land between jobs when this worker finished
			// (or never started) the aborted attempt: ack it and forget
			// anything retained under that sequence.
			seq := cur.Uvarint()
			if ent, ok := s.resident[seq]; ok {
				ent.drop()
				delete(s.resident, seq)
			}
			if err := s.ackAbort(seq); err != nil {
				return fmt.Errorf("mapreduce: dist worker: acking abort: %w", err)
			}
		case remote.MsgBucket, remote.MsgFlush:
			// Stray shuffle frames for an aborted attempt, written
			// concurrently with the abort: drop them.
			seq := cur.Uvarint()
			if !s.aborted[seq] {
				err := fmt.Errorf("unexpected %v between jobs", t)
				s.sendError(seq, err)
				return fmt.Errorf("mapreduce: dist worker: %w", err)
			}
		case remote.MsgFetch:
			seq := cur.Uvarint()
			if ent, ok := s.resident[seq]; ok {
				delete(s.resident, seq)
				if err := ent.fetch(s.conn, seq); err != nil {
					return fmt.Errorf("mapreduce: dist worker: fetch: %w", err)
				}
				continue
			}
			// Not resident here — but re-seeded partitions this session
			// holds for the sequence still belong to the fetch. A worker
			// with neither (it never owned any partition of the job)
			// reports an empty set; the coordinator restores the rest
			// from its mirror.
			if err := s.fetchSeeds(seq); err != nil {
				return fmt.Errorf("mapreduce: dist worker: fetch: %w", err)
			}
		case remote.MsgDrop:
			seq := cur.Uvarint()
			if ent, ok := s.resident[seq]; ok {
				ent.drop()
				delete(s.resident, seq)
			}
			delete(s.seeds, seq)
		case remote.MsgShed:
			// An aborted attempt's reduce may have consumed this resident
			// partition; the retry re-seeds it, so this copy is
			// superseded. Sheds arrive between jobs.
			seq := cur.Uvarint()
			part := int(cur.Uvarint())
			if ent, ok := s.resident[seq]; ok {
				ent.shed(part)
			}
			if m := s.seeds[seq]; m != nil {
				delete(m, part)
			}
		case remote.MsgBye:
			return nil
		default:
			err := fmt.Errorf("unexpected %v between jobs", t)
			s.sendError(0, err)
			return fmt.Errorf("mapreduce: dist worker: %w", err)
		}
	}
}

// fetchSeeds answers a fetch for a sequence this session only holds
// seeds for (if any): each seed streams back as a MsgPart frame — the
// blob is already the canonical encodePairs image — then MsgFetchDone.
func (s *workerSession) fetchSeeds(seq uint64) error {
	for part, sb := range s.seeds[seq] {
		frame := []byte{byte(remote.MsgPart)}
		frame = remote.AppendUvarint(frame, seq)
		frame = remote.AppendUvarint(frame, uint64(part))
		frame = remote.AppendUvarint(frame, uint64(sb.count))
		frame = append(frame, sb.blob...)
		if err := s.conn.WriteFrame(frame); err != nil {
			return err
		}
	}
	delete(s.seeds, seq)
	return s.conn.WriteFrame(remote.AppendUvarint([]byte{byte(remote.MsgFetchDone)}, seq))
}

// distWorkerJob executes one job on a worker.
type distWorkerJob[K1 comparable, V1 any, K2 comparable, V2 any, K3 comparable, V3 any] struct {
	job DistJob[K1, V1, K2, V2, K3, V3]
}

// workerSender is the ShuffleBackend a chained worker-side map phase
// emits into: buckets for owned partitions land in the local shuffle
// directly (this is the path self-addressed pairs take — they never
// touch the wire), buckets for foreign partitions stream to the
// coordinator, which relays them to their owner.
type workerSender[K2 comparable, V2 any] struct {
	s        *workerSession
	h        *distJobHeader
	seq      uint64
	local    *memoryShuffle[K2, V2]
	ar       *roundArena[K2, V2]
	pc       *pairCodec[K2, V2]
	sent     atomic.Int64
	reducers int
}

func (ws *workerSender[K2, V2]) Partitions() int { return ws.reducers }
func (ws *workerSender[K2, V2]) BucketCap() int  { return 0 }

func (ws *workerSender[K2, V2]) AddBucket(split, part int, pairs []Pair[K2, V2]) error {
	if ws.h.owner(part) == ws.s.id {
		// Ownership transfer, exactly like the in-memory backend.
		return ws.local.AddBucket(split, part, pairs)
	}
	fs := getFrameScratch()
	frame, err := encodeBucketFrame(fs.b[:0], ws.seq, split, part, pairs, ws.pc)
	if err != nil {
		putFrameScratch(fs)
		return fmt.Errorf("encoding bucket: %w", err)
	}
	fs.b = frame
	err = ws.s.conn.WriteFrame(frame)
	putFrameScratch(fs)
	if err != nil {
		return err
	}
	ws.sent.Add(int64(len(pairs)))
	ws.ar.putBucket(part, pairs)
	return nil
}

func (ws *workerSender[K2, V2]) Finalize() ([]GroupStream[K2, V2], error) {
	return nil, fmt.Errorf("workerSender has no streams")
}
func (ws *workerSender[K2, V2]) Close() error { return nil }

func (r *distWorkerJob[K1, V1, K2, V2, K3, V3]) run(s *workerSession, h *distJobHeader) error {
	// The four type ids must match before any record is decoded: a
	// mismatch means the coordinator and this worker registered
	// different functions under the same name.
	if h.k2id != distTypeID[K2]() || h.v2id != distTypeID[V2]() ||
		h.k3id != distTypeID[K3]() || h.v3id != distTypeID[V3]() {
		return fmt.Errorf("job %q type mismatch: coordinator sends (%s,%s)->(%s,%s), worker registered (%s,%s)->(%s,%s)",
			h.name, h.k2id, h.v2id, h.k3id, h.v3id,
			distTypeID[K2](), distTypeID[V2](), distTypeID[K3](), distTypeID[V3]())
	}
	if registered := r.job.StateReduce != nil; h.state != registered {
		return fmt.Errorf("job %q: state job on the coordinator: %t, as registered here: %t", h.name, h.state, registered)
	}
	if h.state && h.mode != remote.ModeChained {
		return fmt.Errorf("job %q: a state job needs a worker-resident input", h.name)
	}
	shufc, err := pairCodecFor[K2, V2]()
	if err != nil {
		return fmt.Errorf("job %q: shuffle %w", h.name, err)
	}
	outc, err := pairCodecFor[K3, V3]()
	if err != nil {
		return fmt.Errorf("job %q: output %w", h.name, err)
	}

	ar := arenaFor[K2, V2](s.pool, h.reducers)
	shuffle := newMemoryShuffle[K2, V2](h.reducers, h.splits, ar)

	// Ingest: either the coordinator streams every bucket, or this
	// worker maps its resident input partitions while the main
	// loop below keeps receiving the buckets other workers relay here.
	var mapErrOnce sync.Once
	var mapErr error
	mapDone := make(chan struct{})
	steps := plainSteps(r.job.Reduce)
	if h.mode == remote.ModeChained {
		input, err := chainedInput[K1, V1](s, h)
		if err != nil {
			return err
		}
		if r.job.Map == nil {
			return fmt.Errorf("job %q has no registered map function, cannot consume a worker-resident input", h.name)
		}
		var joinOrder func(a, b K1) int
		if r.job.StateReduce != nil {
			parts, ok := any(input.parts).([][]Pair[K2, V1])
			if !ok {
				return fmt.Errorf("job %q: a state job's messages are keyed like its input, not %s", h.name, h.k2id)
			}
			steps = joinedSteps(parts, r.job.StateReduce)
			joinOrder = keyShapeOf[K1]().cmp()
		}
		sender := &workerSender[K2, V2]{
			s: s, h: h, seq: h.seq, local: shuffle, ar: ar, pc: shufc,
			reducers: h.reducers,
		}
		go func() {
			defer close(mapDone)
			start := time.Now()
			emitted, local, cross, err := r.runResidentMap(s, input, joinOrder, sender)
			if err != nil {
				mapErrOnce.Do(func() { mapErr = err })
				// The coordinator's flush barrier waits for every
				// worker's map-done; a silent failure here would leave
				// the whole job waiting on a flush that can never come.
				// The error frame fails the job (and the cluster)
				// instead.
				s.sendError(h.seq, fmt.Errorf("map: %w", err))
				return
			}
			frame := remote.AppendUvarint([]byte{byte(remote.MsgMapDone)}, h.seq)
			frame = remote.AppendUvarint(frame, uint64(emitted))
			frame = remote.AppendUvarint(frame, uint64(local))
			frame = remote.AppendUvarint(frame, uint64(cross))
			frame = remote.AppendUvarint(frame, uint64(time.Since(start)))
			if err := s.conn.WriteFrame(frame); err != nil {
				mapErrOnce.Do(func() { mapErr = err })
			}
		}()
	} else {
		close(mapDone)
	}

	// Main ingest loop: buckets until the flush — or an abort, which
	// abandons the job after the resident map (if any) has wound down,
	// so the MsgAborted ack is truly this sequence's last frame.
	for {
		payload, err := s.conn.ReadFrame()
		if err != nil {
			// A resident-map failure reported above makes the
			// coordinator tear the cluster down, which surfaces here as
			// a read error: report the root cause, not the teardown.
			select {
			case <-mapDone:
				if mapErr != nil {
					return fmt.Errorf("job %q: map: %w", h.name, mapErr)
				}
			default:
			}
			return fmt.Errorf("job %q: transport error during shuffle: %w", h.name, err)
		}
		cur := remote.NewCursor(payload)
		t := remote.MsgType(cur.Byte())
		if t == remote.MsgFlush {
			cur.Uvarint()
			break
		}
		if t == remote.MsgAbort {
			seq := cur.Uvarint()
			if seq != h.seq {
				// A stale abort for an earlier attempt: ack and keep
				// ingesting the current job.
				if err := s.ackAbort(seq); err != nil {
					return fmt.Errorf("job %q: acking stale abort: %w", h.name, err)
				}
				continue
			}
			<-mapDone
			if err := s.ackAbort(seq); err != nil {
				return fmt.Errorf("job %q: acking abort: %w", h.name, err)
			}
			return errJobAborted
		}
		if t != remote.MsgBucket {
			return fmt.Errorf("job %q: unexpected %v during shuffle", h.name, t)
		}
		seq := cur.Uvarint()
		split := int(cur.Uvarint())
		part := int(cur.Uvarint())
		count := int(cur.Uvarint())
		if seq != h.seq && s.aborted[seq] {
			continue // stray frame from an aborted attempt
		}
		if err := cur.Err(); err != nil || seq != h.seq || split < 0 || split >= h.splits ||
			part < 0 || part >= h.reducers || h.owner(part) != s.id {
			return fmt.Errorf("job %q: malformed bucket (split %d, part %d)", h.name, split, part)
		}
		bucket, err := decodePairs(cur, count, shufc, ar.getBucket(part, pairCap(cur, count, shufc)))
		if err != nil {
			return fmt.Errorf("job %q: decoding bucket: %w", h.name, err)
		}
		if err := shuffle.AddBucket(split, part, bucket); err != nil {
			return err
		}
	}
	<-mapDone
	if mapErr != nil {
		return fmt.Errorf("job %q: map: %w", h.name, mapErr)
	}

	// Group-sort and reduce the owned partitions, in parallel — the
	// memory backend's radix group path runs inside each goroutine,
	// checked out of this worker's round-recycled pool.
	reduceStart := time.Now()
	streams, err := shuffle.Finalize()
	if err != nil {
		return err
	}

	// While the reduce runs, this watcher owns the connection's read
	// side and observes aborts. On an abort for this job it raises
	// cancel, which the reduce goroutines check between key groups —
	// a survivor of a lost round releases it within one group's work
	// instead of finishing output nobody wants. The ack waits for every
	// goroutine to drain so it stays the sequence's final frame.
	var cancel, abortSeen atomic.Bool
	watchStop := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		for {
			select {
			case <-watchStop:
				return
			default:
			}
			payload, err := s.conn.PollFrame(20 * time.Millisecond)
			if err == remote.ErrPollTimeout {
				continue
			}
			if err != nil {
				return // transport gone; the job's own writes surface it
			}
			cur := remote.NewCursor(payload)
			switch t := remote.MsgType(cur.Byte()); t {
			case remote.MsgAbort:
				seq := cur.Uvarint()
				if seq != h.seq {
					s.ackAbort(seq) // stale abort for an earlier attempt
					continue
				}
				abortSeen.Store(true)
				cancel.Store(true)
				return
			case remote.MsgBucket, remote.MsgFlush:
				if seq := cur.Uvarint(); s.aborted[seq] {
					continue // stray frames from an aborted attempt
				}
				return
			default:
				return
			}
		}
	}()

	arOut := arenaFor[K3, V3](s.pool, h.reducers)
	outs := make([][]Pair[K3, V3], h.reducers)
	outCounts := make([]int64, h.reducers)
	sides := make([][]uint64, h.reducers) // reduce side output, reported in MsgJobDone
	var groups atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, h.reducers)
	for p, st := range streams {
		if h.owner(p) != s.id {
			st.Close()
			continue
		}
		p, st := p, st
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer st.Close()
			buf := &emitBuf[K3, V3]{pairs: arOut.getPairs(p, 0)}
			step := steps(p, st)
			for {
				if cancel.Load() {
					errs[p] = errJobAborted
					outs[p] = buf.pairs // recycled by the abort path below
					return
				}
				more, err := step(buf)
				if err != nil {
					errs[p] = err
					return
				}
				if !more {
					break
				}
				groups.Add(1)
			}
			outs[p] = buf.pairs
			sides[p] = buf.side
			outCounts[p] = int64(len(buf.pairs))
		}()
	}
	wg.Wait()
	close(watchStop)
	s.conn.BreakPoll() // don't hold job completion for the poll interval
	watchWG.Wait()
	if abortSeen.Load() {
		for p, out := range outs {
			if out != nil {
				arOut.putPairs(p, out)
				outs[p] = nil
			}
		}
		if err := s.ackAbort(h.seq); err != nil {
			return fmt.Errorf("job %q: acking abort: %w", h.name, err)
		}
		return errJobAborted
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("job %q: %w", h.name, err)
		}
	}

	// Checkpoint the retained output: one frame per owned partition
	// (empty partitions included — restoration must distinguish "empty"
	// from "missing") streamed to the coordinator's mirror, which is what
	// recovery restores from. A transport failure here fails the job like
	// any other.
	var ownedParts []int
	for p := 0; p < h.reducers; p++ {
		if h.owner(p) == s.id {
			ownedParts = append(ownedParts, p)
		}
	}
	if h.ckpt {
		for _, p := range ownedParts {
			frame := []byte{byte(remote.MsgCkpt)}
			frame = remote.AppendUvarint(frame, h.seq)
			frame = remote.AppendUvarint(frame, uint64(p))
			frame = remote.AppendUvarint(frame, uint64(len(outs[p])))
			frame, err := encodePairs(frame, outs[p], outc)
			if err != nil {
				return fmt.Errorf("job %q: encoding checkpoint partition %d: %w", h.name, p, err)
			}
			// Buffered: the MsgJobDone write below flushes the whole
			// checkpoint stream in one syscall.
			if err := s.conn.WriteFrameBuffered(frame); err != nil {
				return fmt.Errorf("job %q: streaming checkpoint partition %d: %w", h.name, p, err)
			}
		}
	}

	// Retain resident output and report.
	var outRecords int64
	for _, p := range ownedParts {
		outRecords += outCounts[p]
	}
	frame := remote.AppendUvarint([]byte{byte(remote.MsgJobDone)}, h.seq)
	frame = appendJobDone(frame, groups.Load(), outRecords, time.Since(reduceStart),
		ownedParts, outCounts, sides)
	s.resident[h.seq] = &residentData[K3, V3]{parts: outs, pc: outc, ar: arOut}
	return s.conn.WriteFrame(frame)
}

// runResidentMap maps this worker's resident input partitions,
// identity-routing self-addressed pairs into the local shuffle — the
// partition-resident fast path, now running where the partition lives.
func (r *distWorkerJob[K1, V1, K2, V2, K3, V3]) runResidentMap(
	s *workerSession, input *residentData[K1, V1], joinOrder func(a, b K1) int, sender *workerSender[K2, V2],
) (emitted, local, cross int64, err error) {
	var wg sync.WaitGroup
	errs := make([]error, len(input.parts))
	var em, lo, cr atomic.Int64
	for p, part := range input.parts {
		if sender.h.owner(p) != s.id || part == nil {
			continue
		}
		p, part := p, part
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := mapResident(context.Background(), sender.h.name, p, part, r.job.Map, joinOrder, sender, sender.ar)
			if err != nil {
				errs[p] = err
				return
			}
			em.Add(e.count)
			lo.Add(e.local)
			cr.Add(e.cross)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return em.Load(), lo.Load(), cr.Load(), nil
}
