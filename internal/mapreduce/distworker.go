package mapreduce

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/mapreduce/remote"
)

// This file is the worker half of the distributed execution mode: the
// job registry, the serve loop a worker process runs, and the backend a
// job runs over here (workerSender). A worker runs its share of a job
// through the executor every backend runs, execJob: it maps its resident
// input partitions, reduces the partitions it owns, and keeps the output
// Dataset resident for the next job or a fetch. Function values cannot
// travel, so a worker runs the functions registered under the job's name
// — for jobs whose functions close over driver-side round state, the
// registered factory rebuilds them from the job's parameter blob
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

// distJobRunner is the untyped face of a registered job: a DistJob.
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
		return job, nil
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

// residentSet is a *Dataset a worker keeps between jobs — a job's
// output, or an input seeded or built here — holding the partitions the
// worker owns (the others are nil).
type residentSet interface {
	serveFetch(conn *remote.Conn, seq uint64) error
	Recycle()
	// shed releases one partition a seed supersedes: keeping the copy
	// here would serve stale data if this worker were ever asked for it.
	shed(part int)
}

// serveFetch streams every partition a worker holds of d and recycles
// them (fetch moves; the coordinator's Materialize owns the records
// afterwards). The caller ends the reply.
func (d *Dataset[K, V]) serveFetch(conn *remote.Conn, seq uint64) error {
	pc, err := pairCodecFor[K, V]()
	if err != nil {
		return err
	}
	fs := getFrameScratch()
	defer putFrameScratch(fs)
	for p, pairs := range d.parts {
		if pairs == nil {
			continue
		}
		frame := append(fs.b[:0], byte(remote.MsgPart))
		frame = remote.AppendUvarint(frame, seq)
		frame = remote.AppendUvarint(frame, uint64(p))
		frame = remote.AppendUvarint(frame, uint64(len(pairs)))
		frame, err := encodePairs(frame, pairs, pc)
		if err != nil {
			return fmt.Errorf("encoding resident partition %d: %w", p, err)
		}
		fs.b = frame
		if err := conn.WriteFrame(frame); err != nil {
			return err
		}
	}
	d.Recycle()
	return nil
}

// shed recycles a single superseded partition.
func (d *Dataset[K, V]) shed(part int) {
	if part >= 0 && part < len(d.parts) && d.parts[part] != nil {
		arenaFor[K, V](d.pool, len(d.parts)).putPairs(part, d.parts[part])
		d.parts[part] = nil
	}
}

// chainedInput resolves a job's worker-resident input,
// installing any seeded partitions (MsgSeed blobs held by the session)
// first. A worker that retained nothing for the sequence — a survivor
// that only now inherited partitions — starts from an empty set and
// fills it from its seeds.
func chainedInput[K1 comparable, V1 any](s *workerSession, h *distJobHeader) (*Dataset[K1, V1], error) {
	pc, err := pairCodecFor[K1, V1]()
	if err != nil {
		return nil, fmt.Errorf("job %q: resident input %w", h.name, err)
	}
	rd, err := residentFor[K1, V1](s, h.inputSeq, h.reducers)
	if err != nil {
		return nil, fmt.Errorf("job %q: %w", h.name, err)
	}
	ar := arenaFor[K1, V1](s.pool, h.reducers)
	for part, sb := range s.seeds[h.inputSeq] {
		if part >= len(rd.parts) {
			return nil, fmt.Errorf("job %q: seed for partition %d of %d", h.name, part, len(rd.parts))
		}
		pairs, err := decodePairs(remote.NewCursor(sb.blob), sb.count, pc, ar.getPairs(part, sb.count))
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
func residentFor[K comparable, V any](s *workerSession, seq uint64, parts int) (*Dataset[K, V], error) {
	if ent, ok := s.resident[seq]; ok {
		rd, ok := ent.(*Dataset[K, V])
		if !ok || rd.Partitions() != parts {
			return nil, fmt.Errorf("resident input %d has a different type or partition count", seq)
		}
		return rd, nil
	}
	rd := &Dataset[K, V]{parts: make([][]Pair[K, V], parts), aligned: true, pool: s.pool}
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
	// ctx is the session's context: every job's executor runs under it.
	ctx      context.Context
	conn     *remote.Conn
	id       int
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

// The startup dial's retry schedule: a worker process may legitimately
// start before its coordinator listens, so it dials up to dialAttempts
// times, dialBaseDelay doubling to dialMaxDelay apart (±25% jitter).
const (
	dialAttempts  = 8
	dialBaseDelay = 50 * time.Millisecond
	dialMaxDelay  = time.Second
)

// DistWorkerOptions tunes one worker session (ServeDistWorkerOpts).
type DistWorkerOptions struct {
	// Fault, when non-nil, arms a deterministic fault on this worker's
	// endpoint once the handshake completes, so its frame indices count
	// job traffic only. Test instrumentation for in-process workers —
	// the gray-failure (stall) chaos tests hang a worker from the
	// inside, where the coordinator cannot see a transport error.
	Fault *remote.Fault
}

// ServeDistWorker connects to a coordinator and serves jobs until the
// coordinator says goodbye (clean nil return) or the session fails. A
// connection that ends without a goodbye is a failed session: the
// coordinator either counted this worker lost, and nothing reconnects
// it, or failed itself.
// It is the main loop of a worker process — the self-exec CLIs call it
// in worker mode — and is equally happy on a goroutine for in-process
// tests. Cancelling ctx closes the connection and ends the session.
func ServeDistWorker(ctx context.Context, addr string) error {
	return ServeDistWorkerOpts(ctx, addr, DistWorkerOptions{})
}

// ServeDistWorkerOpts is ServeDistWorker with session options.
func ServeDistWorkerOpts(ctx context.Context, addr string, opts DistWorkerOptions) error {
	if ctx == nil {
		ctx = context.Background()
	}
	nc, err := dialWithRetry(ctx, addr, dialAttempts, dialBaseDelay, dialMaxDelay, uint64(os.Getpid()))
	if err != nil {
		return fmt.Errorf("mapreduce: dist worker dialing %s: %w", addr, err)
	}
	conn := remote.NewConn(nc)
	defer conn.Close()
	if err := remote.Hello(conn); err != nil {
		return fmt.Errorf("mapreduce: dist worker handshake: %w", err)
	}
	info, err := remote.AwaitWelcome(conn)
	if err != nil {
		return fmt.Errorf("mapreduce: dist worker handshake: %w", err)
	}
	if opts.Fault != nil {
		conn.Arm(opts.Fault)
	}
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()
	s := &workerSession{
		ctx:      ctx,
		conn:     conn,
		id:       info.WorkerID,
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
	err = s.serve()
	if err != nil && ctx.Err() != nil {
		// The cancel closed the connection under the serve loop.
		return ctx.Err()
	}
	return err
}

// dialWithRetry dials the coordinator, retrying with jittered backoff
// (remote.Backoff from base, capped at maxDelay) while the listener
// isn't there yet. Connection refusals and timeouts retry; an exhausted
// budget returns the last dial error. A cancelled context returns
// ctx.Err() at once, mid-backoff or mid-dial.
func dialWithRetry(ctx context.Context, addr string, attempts int, base, maxDelay time.Duration, seed uint64) (net.Conn, error) {
	dialer := net.Dialer{Timeout: 5 * time.Second}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			wait := time.NewTimer(remote.Backoff(a-1, base, maxDelay, seed))
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
			// No goodbye: the coordinator severed this worker (and counts
			// it lost) or failed itself.
			return fmt.Errorf("mapreduce: dist worker %d: connection to the coordinator lost: %w", s.id, err)
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
				if err := ent.serveFetch(s.conn, seq); err != nil {
					return fmt.Errorf("mapreduce: dist worker: fetch: %w", err)
				}
			}
			if err := s.fetchSeeds(seq); err != nil {
				return fmt.Errorf("mapreduce: dist worker: fetch: %w", err)
			}
		case remote.MsgDrop:
			seq := cur.Uvarint()
			if ent, ok := s.resident[seq]; ok {
				ent.Recycle()
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

// workerSender is the ShuffleBackend a worker runs its share of a job
// over: buckets for owned partitions land in the local shuffle directly
// (this is the path self-addressed pairs take — they never touch the
// wire), buckets for foreign partitions stream to the coordinator, which
// relays them to their owner.
//
// Its life: from creation it ingests the buckets relayed here on its own
// goroutine — ingest must overlap the map, or two workers relaying to
// each other deadlock. Finalize seals the map side with MsgMapDone,
// waits for the flush that ends the ingest, and returns the owned
// partitions' group streams (nil for the others). Close never waits on
// the ingest.
type workerSender[K2 comparable, V2 any] struct {
	s     *workerSession
	h     *distJobHeader
	local *memoryShuffle[K2, V2]
	ar    *roundArena[K2, V2]
	pc    *pairCodec[K2, V2]
	// ingested receives what the ingest ended with: nil at the flush.
	ingested chan error
}

func newWorkerSender[K2 comparable, V2 any](s *workerSession, h *distJobHeader, pc *pairCodec[K2, V2]) *workerSender[K2, V2] {
	ar := arenaFor[K2, V2](s.pool, h.reducers)
	ws := &workerSender[K2, V2]{
		s: s, h: h, ar: ar, pc: pc,
		local:    newMemoryShuffle[K2, V2](h.reducers, h.reducers, ar),
		ingested: make(chan error, 1),
	}
	go func() { ws.ingested <- ws.ingest() }()
	return ws
}

// ingest adds the buckets other workers' maps relayed here to the local
// shuffle until the flush. A relayed bucket comes from a split this
// worker does not map, so it never races a local map task's AddBucket.
func (ws *workerSender[K2, V2]) ingest() error {
	h := ws.h
	for {
		payload, err := ws.s.conn.ReadFrame()
		if err != nil {
			return fmt.Errorf("job %q: transport error during shuffle: %w", h.name, err)
		}
		cur := remote.NewCursor(payload)
		switch t := remote.MsgType(cur.Byte()); t {
		case remote.MsgFlush:
			if seq := cur.Uvarint(); cur.Err() != nil || seq != h.seq {
				return fmt.Errorf("job %q: flush for job %d", h.name, seq)
			}
			return nil
		case remote.MsgBucket:
		default:
			return fmt.Errorf("job %q: unexpected %v during shuffle", h.name, t)
		}
		seq := cur.Uvarint()
		split := int(cur.Uvarint())
		part := int(cur.Uvarint())
		count := int(cur.Uvarint())
		if err := cur.Err(); err != nil || seq != h.seq || split < 0 || split >= h.reducers ||
			h.owners[split] == ws.s.id || part < 0 || part >= h.reducers || h.owners[part] != ws.s.id {
			return fmt.Errorf("job %q: malformed bucket (split %d, part %d)", h.name, split, part)
		}
		bucket, err := decodePairs(cur, count, ws.pc, ws.ar.getBucket(part, pairCap(cur, count, ws.pc)))
		if err != nil {
			return fmt.Errorf("job %q: decoding bucket: %w", h.name, err)
		}
		if err := ws.local.AddBucket(split, part, bucket); err != nil {
			return err
		}
	}
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

// Finalize runs once every map task has handed its buckets over, so all
// of this worker's bucket frames precede its MsgMapDone.
func (ws *workerSender[K2, V2]) Finalize() ([]GroupStream[K2, V2], error) {
	if err := ws.s.conn.WriteFrame(remote.AppendUvarint([]byte{byte(remote.MsgMapDone)}, ws.h.seq)); err != nil {
		return nil, err
	}
	if err := <-ws.ingested; err != nil {
		return nil, err
	}
	streams, err := ws.local.Finalize()
	if err != nil {
		return nil, err
	}
	for p, st := range streams {
		if ws.h.owners[p] != ws.s.id {
			st.Close()
			streams[p] = nil
		}
	}
	return streams, nil
}

// Close has nothing to release: the local shuffle holds only memory, and
// an ingest a failed map left running ends when the session closes the
// connection.
func (ws *workerSender[K2, V2]) Close() error { return nil }

// run maps this worker's partitions of the job's resident input, reduces
// the partitions it owns through the executor every backend runs
// (execJob) over a workerSender, keeps the output resident for the next
// job or a fetch, and reports MsgJobDone: the executor's Stats and, per
// owned partition, the output's record count and side output.
func (job DistJob[K1, V1, K2, V2, K3, V3]) run(s *workerSession, h *distJobHeader) error {
	// The four type ids must match before any record is decoded: a
	// mismatch means the coordinator and this worker registered
	// different functions under the same name.
	if h.k2id != distTypeID[K2]() || h.v2id != distTypeID[V2]() ||
		h.k3id != distTypeID[K3]() || h.v3id != distTypeID[V3]() {
		return fmt.Errorf("job %q type mismatch: coordinator sends (%s,%s)->(%s,%s), worker registered (%s,%s)->(%s,%s)",
			h.name, h.k2id, h.v2id, h.k3id, h.v3id,
			distTypeID[K2](), distTypeID[V2](), distTypeID[K3](), distTypeID[V3]())
	}
	if registered := job.StateReduce != nil; h.state != registered {
		return fmt.Errorf("job %q: state job on the coordinator: %t, as registered here: %t", h.name, h.state, registered)
	}
	pc, err := pairCodecFor[K2, V2]()
	if err != nil {
		return fmt.Errorf("job %q: shuffle %w", h.name, err)
	}
	input, err := chainedInput[K1, V1](s, h)
	if err != nil {
		return err
	}
	steps := plainSteps(job.Reduce)
	var joinOrder func(a, b K1) int
	if job.StateReduce != nil {
		parts, ok := any(input.parts).([][]Pair[K2, V1])
		if !ok {
			return fmt.Errorf("job %q: a state job's messages are keyed like its input, not %s", h.name, h.k2id)
		}
		steps = joinedSteps(parts, job.StateReduce)
		joinOrder = keyShapeOf[K1]().cmp()
	}
	cfg := Config{Name: h.name, Reducers: h.reducers, Pool: s.pool}
	out, stats, err := execJob(s.ctx, cfg, input, job.Map, joinOrder, h.hashed, steps, newWorkerSender(s, h, pc))
	if err != nil {
		return err
	}
	s.resident[h.seq] = out
	rep := distWorkerReport{stats: *stats, parts: make(map[int]partReport)}
	for p, part := range out.parts {
		if h.owners[p] == s.id {
			r := partReport{count: int64(len(part))}
			if out.side != nil {
				r.side = out.side[p]
			}
			rep.parts[p] = r
		}
	}
	frame := remote.AppendUvarint([]byte{byte(remote.MsgJobDone)}, h.seq)
	return s.conn.WriteFrame(appendJobDone(frame, &rep))
}
