package mapreduce

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/mapreduce/remote"
)

// This file is BuildDS's dist half: a Dataset built where it resides. The
// coordinator sends each partition's owner one MsgBuild frame naming a
// builder the worker registered (RegisterDistBuild) and its parameters;
// the worker builds the partition, keeps it resident under the Dataset's
// sequence number and reports its record count (MsgBuilt). The frame is
// also the Dataset's recipe: the residency record keeps it where a job
// output keeps its checkpoint mirror, and ensureResident re-seeds a lost
// or consumed partition by sending it again.

// maxBuildParts bounds the partition count a build frame may name: a
// worker sizes the Dataset's resident set by it.
const maxBuildParts = 1 << 16

// distBuild is a built Dataset's recipe: the registered builder's name,
// its parameters and the Dataset's partition count.
type distBuild struct {
	name   string
	params []byte
	parts  int
}

// frame is the MsgBuild frame that builds partition part of Dataset seq.
func (b *distBuild) frame(seq uint64, part int) []byte {
	frame := remote.AppendUvarint([]byte{byte(remote.MsgBuild)}, seq)
	frame = remote.AppendUvarint(frame, uint64(part))
	frame = remote.AppendUvarint(frame, uint64(b.parts))
	frame = remote.AppendString(frame, b.name)
	return remote.AppendBytes(frame, b.params)
}

// parseBuildFrame decodes a MsgBuild payload (the type byte already
// consumed). It accepts exactly what frame writes (FuzzBuildFrame).
func parseBuildFrame(cur *remote.Cursor) (seq uint64, part int, b distBuild, err error) {
	seq = cur.Uvarint()
	p, parts := cur.Uvarint(), cur.Uvarint()
	b.name = cur.String()
	b.params = append([]byte(nil), cur.Bytes()...)
	if err := cur.Err(); err != nil || len(cur.Rest()) > 0 {
		return 0, 0, distBuild{}, fmt.Errorf("mapreduce: malformed build frame")
	}
	if parts == 0 || parts > maxBuildParts || p >= parts {
		return 0, 0, distBuild{}, fmt.Errorf("mapreduce: malformed build frame: partition %d of %d (at most %d)", p, parts, maxBuildParts)
	}
	b.parts = int(parts)
	return seq, int(p), b, nil
}

// buildResident is BuildDS on dist: every partition is built by its
// owner, and the Dataset is registered resident with the recipe in place
// of a mirror and the workers' counts as its own. build stays with the
// Dataset for Materialize.
func buildResident[K comparable, V any](cl *DistCluster, cfg Config, name string, params []byte, build func(p int, owns func(K) bool) []Pair[K, V]) (*Dataset[K, V], error) {
	if err := cl.Err(); err != nil {
		return nil, fmt.Errorf("mapreduce: build %q: dist cluster is broken: %w", name, err)
	}
	rec := &distBuild{name: name, params: params, parts: cfg.reducers()}
	seq := cl.nextSeq()
	loc, counts, err := cl.buildOnWorkers(seq, rec)
	if err != nil {
		return nil, err
	}
	cl.registerResident(seq, &distMirror{loc: loc, counts: counts, recipe: rec})
	ds := newRemoteDataset[K, V](cl, seq, counts, nil, true, cfg.Pool)
	ds.rebuild = func(p int) ([]Pair[K, V], error) { return buildPart(p, rec.parts, build, keyShapeOf[K]().cmp()) }
	return ds, nil
}

// buildOnWorkers has every partition of Dataset seq built by its owner,
// each worker's share at once, and returns where each partition lives and
// its record count. A worker lost on the way takes what it built with it:
// its partitions are built again on the survivors, as a job is retried.
// A worker's refusal breaks the cluster, like a failing job function.
func (cl *DistCluster) buildOnWorkers(seq uint64, rec *distBuild) ([]int, []int64, error) {
	loc := make([]int, rec.parts)
	for p := range loc {
		loc[p] = locNowhere
	}
	counts := make([]int64, rec.parts)
	for attempt := 0; ; attempt++ {
		owners := cl.ownersFor(rec.parts)
		batches := make(map[int][]int)
		for p, w := range loc {
			if w < 0 || cl.isDead(w) {
				batches[owners[p]] = append(batches[owners[p]], p)
			}
		}
		if len(batches) == 0 {
			return loc, counts, nil
		}
		errs := make([]error, len(cl.conns))
		var wg sync.WaitGroup
		for w, parts := range batches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[w] = cl.buildBatch(w, seq, rec, parts, counts)
			}()
		}
		wg.Wait()
		var lost error
		for w, parts := range batches {
			switch err := errs[w]; {
			case err == nil:
				for _, p := range parts {
					loc[p] = w
				}
			case isWorkerLost(err):
				lost = err
			default:
				cl.fail(err)
				return nil, nil, err
			}
		}
		if lost != nil {
			if !cl.retryAfterLoss(attempt) {
				return nil, nil, lost
			}
			cl.recoverAssignments()
		}
	}
}

// buildBatch sends worker w the build frames of its partitions and reads
// their counts into counts. The read deadline rolls with every frame, so
// a build that keeps the worker's heartbeats flowing is slow, not lost.
func (cl *DistCluster) buildBatch(w int, seq uint64, rec *distBuild, parts []int, counts []int64) error {
	conn := cl.conns[w]
	lost := func(err error) error {
		cl.markDead(w, err)
		return &WorkerLostError{Worker: w, Job: rec.name, Err: fmt.Errorf("building a partition: %w", err)}
	}
	for _, p := range parts {
		if err := conn.WriteFrame(rec.frame(seq, p)); err != nil {
			return lost(err)
		}
	}
	defer conn.SetReadDeadline(time.Time{})
	for left := len(parts); left > 0; {
		conn.SetReadDeadline(time.Now().Add(cl.abortTimeout))
		payload, err := conn.ReadFrame()
		if err != nil {
			return lost(err)
		}
		cur := remote.NewCursor(payload)
		switch t := remote.MsgType(cur.Byte()); t {
		case remote.MsgPong:
		case remote.MsgBuilt:
			got, p, n := cur.Uvarint(), int(cur.Uvarint()), cur.Uvarint()
			if cur.Err() != nil || got != seq || !slices.Contains(parts, p) {
				return fmt.Errorf("mapreduce: build %q: malformed built frame from worker %d", rec.name, w)
			}
			counts[p] = int64(n)
			left--
		case remote.MsgError:
			cur.Uvarint() // seq
			return fmt.Errorf("mapreduce: build %q: worker %d: %s", rec.name, w, cur.String())
		default:
			return fmt.Errorf("mapreduce: build %q: unexpected %v from worker %d", rec.name, t, w)
		}
	}
	return nil
}

// distBuilder is a registered builder, untyped: build makes partition
// part of Dataset seq and returns its record count and the step that
// installs it in the session's resident set.
type distBuilder interface {
	build(seq uint64, part, parts int) (int, func(s *workerSession) error, error)
}

// partBuilder is a registered builder's typed callback.
type partBuilder[K comparable, V any] func(p int, owns func(K) bool) []Pair[K, V]

func (b partBuilder[K, V]) build(seq uint64, part, parts int) (int, func(*workerSession) error, error) {
	pairs, err := buildPart(part, parts, b, keyShapeOf[K]().cmp())
	if err != nil {
		return 0, nil, err
	}
	return len(pairs), func(s *workerSession) error {
		rd, err := residentFor[K, V](s, seq, parts)
		if err != nil {
			return err
		}
		if old := rd.parts[part]; old != nil {
			rd.ar.putPairs(part, old)
		}
		rd.parts[part] = pairs
		return nil
	}, nil
}

var distBuilds = struct {
	mu sync.RWMutex
	m  map[string]func(params []byte) (distBuilder, error)
}{m: make(map[string]func(params []byte) (distBuilder, error))}

// RegisterDistBuild registers the worker-side builder of every Dataset
// BuildDS builds under name. The factory runs once per build frame with
// the coordinator's parameters and returns the partition callback, which
// must return what the coordinator's build callback would; a factory
// error refuses the build, and the coordinator's BuildDS fails with it.
// Registration is process-wide and the last registration for a name wins,
// as with RegisterDistJob.
func RegisterDistBuild[K comparable, V any](
	name string,
	factory func(params []byte) (func(p int, owns func(K) bool) []Pair[K, V], error),
) {
	distBuilds.mu.Lock()
	defer distBuilds.mu.Unlock()
	distBuilds.m[name] = func(params []byte) (distBuilder, error) {
		if _, err := pairCodecFor[K, V](); err != nil {
			return nil, err
		}
		build, err := factory(params)
		if err != nil {
			return nil, err
		}
		return partBuilder[K, V](build), nil
	}
}

func lookupDistBuild(name string, params []byte) (distBuilder, error) {
	distBuilds.mu.RLock()
	factory, ok := distBuilds.m[name]
	distBuilds.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no dist build registered as %q (workers build with registered builders; see RegisterDistBuild)", name)
	}
	return factory(params)
}

// startBuild answers one MsgBuild: the builder is looked up (and may
// refuse) here, once for the frames of one Dataset that arrive together,
// and the partition is built on its own goroutine, so the partitions of
// one Dataset build at once, sharing what the builder made. The count goes
// back as soon as the partition is built; it is installed before the
// serve loop handles any frame other than another build (awaitBuilds).
func (s *workerSession) startBuild(cur *remote.Cursor) (uint64, error) {
	seq, part, rec, err := parseBuildFrame(cur)
	if err != nil {
		return 0, err
	}
	b, ok := s.builders[seq]
	if !ok {
		if b, err = lookupDistBuild(rec.name, rec.params); err != nil {
			return seq, err
		}
		s.builders[seq] = b
	}
	s.builds.Add(1)
	go func() {
		defer s.builds.Done()
		n, install, err := b.build(seq, part, rec.parts)
		if err != nil {
			install = func(*workerSession) error { return err }
		}
		s.buildMu.Lock()
		s.built = append(s.built, install)
		s.buildMu.Unlock()
		if err != nil {
			// The coordinator is waiting for this partition's count:
			// tell it now, not when the next frame arrives.
			s.sendError(seq, fmt.Errorf("build %q partition %d: %w", rec.name, part, err))
			return
		}
		frame := remote.AppendUvarint([]byte{byte(remote.MsgBuilt)}, seq)
		frame = remote.AppendUvarint(frame, uint64(part))
		frame = remote.AppendUvarint(frame, uint64(n))
		// A failed write means the connection is gone; the serve loop's
		// next read reports that.
		_ = s.conn.WriteFrame(frame)
	}()
	return seq, nil
}

// awaitBuilds waits for every started build and installs what they built,
// returning the first failure. The builders go with them.
func (s *workerSession) awaitBuilds() error {
	s.builds.Wait()
	clear(s.builders)
	s.buildMu.Lock()
	built := s.built
	s.built = nil
	s.buildMu.Unlock()
	var first error
	for _, install := range built {
		if err := install(s); err != nil && first == nil {
			first = err
		}
	}
	return first
}
