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
// handler that maps the worker's resident input partitions, ingests the
// buckets other workers' maps addressed to its partitions, group-sorts
// each owned partition with the same radix path the in-memory backend
// uses, runs the registered reduce function, and keeps the output
// resident for the next job or a fetch. Function values cannot travel,
// so a worker runs the map/reduce functions registered under the job's
// name — for jobs whose functions close over driver-side round state,
// the registered factory rebuilds them from the job's parameter blob
// (Config.DistParams).

// DistJob is one registered job's worker-side behavior.
type DistJob[K1 comparable, V1 any, K2 comparable, V2 any, K3 comparable, V3 any] struct {
	// Map runs over the worker's partitions of the job's input: every
	// dist job maps where its input resides, so it is required, and must
	// be the function the coordinator hands RunDS (or RunStateDS).
	Map MapFunc[K1, V1, K2, V2]
	// Reduce runs over every owned partition's key groups. Required,
	// unless the job is a state job.
	Reduce ReduceFunc[K2, V2, K3, V3]
	// StateReduce takes Reduce's place in a state job (RunStateDS), which
	// needs K1 = K2.
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
		if job.Map == nil || (job.Reduce == nil) == (job.StateReduce == nil) {
			return nil, fmt.Errorf("job %q must be registered with a map and either a reduce or a state reduce function", name)
		}
		return &distWorkerJob[K1, V1, K2, V2, K3, V3]{job: job}, nil
	}
}

// RegisterDistMapReduce registers a job whose map and reduce take no
// parameters: RegisterDistJob with a factory that ignores its blob.
func RegisterDistMapReduce[K1 comparable, V1 any, K2 comparable, V2 any, K3 comparable, V3 any](
	name string, mapFn MapFunc[K1, V1, K2, V2], reduceFn ReduceFunc[K2, V2, K3, V3],
) {
	RegisterDistJob(name, func([]byte) (DistJob[K1, V1, K2, V2, K3, V3], error) {
		return DistJob[K1, V1, K2, V2, K3, V3]{Map: mapFn, Reduce: reduceFn}, nil
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
	// fetch streams every retained partition (MsgPart) and drops them.
	fetch(conn *remote.Conn, seq uint64) error
	drop()
	// shed releases one partition a seed supersedes: keeping the copy
	// here would serve stale data if this worker were ever asked for it.
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
// the coordinator's Materialize owns the records afterwards). The caller
// ends the reply.
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
	return nil
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

// chainedInput resolves a job's worker-resident input,
// installing any seeded partitions (MsgSeed blobs held by the session)
// first. A worker that retained nothing for the sequence — a survivor
// that only now inherited partitions — starts from an empty set and
// fills it from its seeds.
func chainedInput[K1 comparable, V1 any](s *workerSession, h *distJobHeader) (*residentData[K1, V1], error) {
	rd, err := residentFor[K1, V1](s, h.inputSeq, h.reducers)
	if err != nil {
		return nil, fmt.Errorf("job %q: %w", h.name, err)
	}
	for part, sb := range s.seeds[h.inputSeq] {
		if part >= len(rd.parts) {
			return nil, fmt.Errorf("job %q: seed for partition %d of %d", h.name, part, len(rd.parts))
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

// seedBlob is one seeded partition awaiting its consuming job: the raw
// encodePairs image of the coordinator's copy, decoded lazily when the
// chained job that reads it starts (the session doesn't know the
// partition's types until then).
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
	// seeds holds seeded partitions by Dataset sequence, then partition
	// (MsgSeed, sent ahead of the job that consumes them).
	seeds map[uint64]map[int]seedBlob
	// builds counts the partitions being built (MsgBuild), builders
	// holds the builder each Dataset being built got, and built collects
	// the steps that install finished partitions, which only the serve
	// loop runs: it alone touches resident.
	builds   sync.WaitGroup
	builders map[uint64]distBuilder
	buildMu  sync.Mutex
	built    []func(*workerSession) error
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
				s.sendError(h.seq, err)
				return fmt.Errorf("mapreduce: dist worker: job %q: %w", h.name, err)
			}
		case remote.MsgSeed:
			// A placed or restored partition, homed here ahead of the job
			// that consumes it. Kept as the raw blob: the types arrive
			// with that job's header.
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
			// The coordinator seeds only a partition no live worker holds
			// intact: a copy here is stale.
			if ent, ok := s.resident[seq]; ok {
				ent.shed(part)
			}
			m := s.seeds[seq]
			if m == nil {
				m = make(map[int]seedBlob)
				s.seeds[seq] = m
			}
			m[part] = seedBlob{count: count, blob: blob}
		case remote.MsgFetch:
			// Resident partitions, then seeded ones no job has read yet;
			// a worker with neither reports an empty set.
			seq := cur.Uvarint()
			if ent, ok := s.resident[seq]; ok {
				delete(s.resident, seq)
				if err := ent.fetch(s.conn, seq); err != nil {
					return fmt.Errorf("mapreduce: dist worker: fetch: %w", err)
				}
			}
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
		case remote.MsgBye:
			return nil
		default:
			err := fmt.Errorf("unexpected %v between jobs", t)
			s.sendError(0, err)
			return fmt.Errorf("mapreduce: dist worker: %w", err)
		}
	}
}

// fetchSeeds ends a fetch reply: each seed the session holds for the
// sequence streams back as a MsgPart frame — the blob is already the
// canonical encodePairs image — then MsgFetchDone.
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

// workerSender is the ShuffleBackend a worker-side map phase emits
// into: buckets for owned partitions land in the local shuffle
// directly (this is the path self-addressed pairs take — they never
// touch the wire), buckets for foreign partitions stream to the
// coordinator, which relays them to their owner.
type workerSender[K2 comparable, V2 any] struct {
	s     *workerSession
	h     *distJobHeader
	local *memoryShuffle[K2, V2]
	ar    *roundArena[K2, V2]
	pc    *pairCodec[K2, V2]
}

func (ws *workerSender[K2, V2]) Partitions() int { return ws.h.reducers }
func (ws *workerSender[K2, V2]) BucketCap() int  { return 0 }

func (ws *workerSender[K2, V2]) AddBucket(split, part int, pairs []Pair[K2, V2]) error {
	if ws.h.owners[part] == ws.s.id {
		// Ownership transfer, exactly like the in-memory backend.
		return ws.local.AddBucket(split, part, pairs)
	}
	// A bucket frame's pair payload is a self-contained codec-v2 blob
	// (see codecv2.go), so the coordinator relays the frame as it is.
	fs := getFrameScratch()
	frame := append(fs.b[:0], byte(remote.MsgBucket))
	frame = remote.AppendUvarint(frame, ws.h.seq)
	frame = remote.AppendUvarint(frame, uint64(split))
	frame = remote.AppendUvarint(frame, uint64(part))
	frame = remote.AppendUvarint(frame, uint64(len(pairs)))
	frame, err := encodePairs(frame, pairs, ws.pc)
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
	shufc, err := pairCodecFor[K2, V2]()
	if err != nil {
		return fmt.Errorf("job %q: shuffle %w", h.name, err)
	}
	outc, err := pairCodecFor[K3, V3]()
	if err != nil {
		return fmt.Errorf("job %q: output %w", h.name, err)
	}
	bytes0, misses0 := s.pool.counters()

	ar := arenaFor[K2, V2](s.pool, h.reducers)
	shuffle := newMemoryShuffle[K2, V2](h.reducers, h.reducers, ar)

	// Ingest: this worker maps its resident input partitions while the
	// main loop below keeps receiving the buckets other workers relay
	// here.
	input, err := chainedInput[K1, V1](s, h)
	if err != nil {
		return err
	}
	steps := plainSteps(r.job.Reduce)
	var joinOrder func(a, b K1) int
	if r.job.StateReduce != nil {
		parts, ok := any(input.parts).([][]Pair[K2, V1])
		if !ok {
			return fmt.Errorf("job %q: a state job's messages are keyed like its input, not %s", h.name, h.k2id)
		}
		steps = joinedSteps(parts, r.job.StateReduce)
		joinOrder = keyShapeOf[K1]().cmp()
	}
	sender := &workerSender[K2, V2]{s: s, h: h, local: shuffle, ar: ar, pc: shufc}
	var mapErr error
	mapDone := make(chan struct{})
	go func() {
		defer close(mapDone)
		start := time.Now()
		emitted, local, cross, err := r.runResidentMap(s, input, joinOrder, sender)
		if err != nil {
			mapErr = err
			// The coordinator's flush barrier waits for every worker's
			// map-done; a silent failure here would leave the whole job
			// waiting on a flush that can never come. The error frame
			// fails the job (and the cluster) instead.
			s.sendError(h.seq, fmt.Errorf("map: %w", err))
			return
		}
		frame := remote.AppendUvarint([]byte{byte(remote.MsgMapDone)}, h.seq)
		frame = remote.AppendUvarint(frame, uint64(emitted))
		frame = remote.AppendUvarint(frame, uint64(local))
		frame = remote.AppendUvarint(frame, uint64(cross))
		frame = remote.AppendUvarint(frame, uint64(time.Since(start)))
		mapErr = s.conn.WriteFrame(frame)
	}()

	// Main ingest loop: buckets until the flush.
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
		if t != remote.MsgBucket {
			return fmt.Errorf("job %q: unexpected %v during shuffle", h.name, t)
		}
		seq := cur.Uvarint()
		split := int(cur.Uvarint())
		part := int(cur.Uvarint())
		count := int(cur.Uvarint())
		if err := cur.Err(); err != nil || seq != h.seq || split < 0 || split >= h.reducers ||
			part < 0 || part >= h.reducers || h.owners[part] != s.id {
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

	arOut := arenaFor[K3, V3](s.pool, h.reducers)
	outs := make([][]Pair[K3, V3], h.reducers)
	outCounts := make([]int64, h.reducers)
	sides := make([][]uint64, h.reducers) // reduce side output, reported in MsgJobDone
	var groups atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, h.reducers)
	for p, st := range streams {
		if h.owners[p] != s.id {
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
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("job %q: %w", h.name, err)
		}
	}

	// Retain resident output and report.
	var ownedParts []int
	var outRecords int64
	for p := 0; p < h.reducers; p++ {
		if h.owners[p] == s.id {
			ownedParts = append(ownedParts, p)
			outRecords += outCounts[p]
		}
	}
	bytes1, misses1 := s.pool.counters()
	frame := remote.AppendUvarint([]byte{byte(remote.MsgJobDone)}, h.seq)
	frame = appendJobDone(frame, groups.Load(), outRecords, time.Since(reduceStart),
		bytes1-bytes0, misses1-misses0, ownedParts, outCounts, sides)
	s.resident[h.seq] = &residentData[K3, V3]{parts: outs, pc: outc, ar: arOut}
	return s.conn.WriteFrame(frame)
}

// runResidentMap maps this worker's resident input partitions,
// identity-routing self-addressed pairs into the local shuffle unless
// the input is a flat input's contiguous splits (h.hashed).
func (r *distWorkerJob[K1, V1, K2, V2, K3, V3]) runResidentMap(
	s *workerSession, input *residentData[K1, V1], joinOrder func(a, b K1) int, sender *workerSender[K2, V2],
) (emitted, local, cross int64, err error) {
	var wg sync.WaitGroup
	errs := make([]error, len(input.parts))
	var em, lo, cr atomic.Int64
	for p, part := range input.parts {
		if sender.h.owners[p] != s.id || part == nil {
			continue
		}
		p, part := p, part
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := mapResident(context.Background(), sender.h.name, p, part, r.job.Map, joinOrder, sender.h.hashed, sender, sender.ar)
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
