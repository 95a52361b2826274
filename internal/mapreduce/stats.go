package mapreduce

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Stats records the measurable footprint of one MapReduce job. The paper
// reports efficiency as the number of MapReduce iterations and reasons
// about the communication cost of each job (O(|E|) records per round for
// the matching algorithms); these fields make both quantities observable.
type Stats struct {
	// Name is the job label from Config.Name.
	Name string
	// MapInputRecords is the number of input pairs.
	MapInputRecords int64
	// MapOutputRecords is the number of intermediate pairs emitted by
	// all mappers.
	MapOutputRecords int64
	// ShuffleRecords is the number of intermediate pairs moved during
	// the shuffle (equal to MapOutputRecords: the engine folds nothing
	// on the map side). A state job (RunStateDS) counts every input
	// record here and in MapOutputRecords once: the record its reduce is
	// handed stands for the self-addressed pair that would otherwise
	// have carried it.
	ShuffleRecords int64
	// ReduceGroups is the number of distinct intermediate keys.
	ReduceGroups int64
	// ReduceOutputRecords is the number of output pairs.
	ReduceOutputRecords int64
	// LocalRouted and CrossRouted split the emitted intermediate pairs
	// by shuffle route. LocalRouted pairs took the identity route of a
	// partition-resident map task (RunDS over an aligned Dataset): they
	// were addressed to the task's own input key, so they went straight
	// into the task's own partition bucket without being hashed.
	// CrossRouted pairs went through the full hash-partitioned route.
	// Flat jobs (RunDS forced to re-partition) hash everything,
	// so they report LocalRouted == 0. A state job's forwarded records
	// are local-routed pairs delivered by reference: they stay in their
	// input partition and meet their group in the reduce task.
	LocalRouted int64
	CrossRouted int64
	// SpilledRecords and SpillRuns describe the external-memory work of
	// the spilling shuffle backend: intermediate records written to
	// disk and sorted run files produced. Both are zero for the
	// in-memory backend, and for spill jobs whose shuffle fit the
	// memory budget.
	SpilledRecords int64
	SpillRuns      int64
	// PooledBytes and PoolMisses describe the job's use of its buffer
	// recycler (Config.Pool): bytes of buffer storage served from the
	// pool's free lists instead of the heap, and checkouts that missed
	// and had to allocate. Both are zero for jobs without a pool. A
	// chained iterative computation converges to all-hits after its
	// first round — rising misses across rounds mean the recycler is
	// being starved (buffers escaping without a matching Recycle).
	PooledBytes int64
	PoolMisses  int64
	// RemoteBytesOut and RemoteBytesIn are the transport bytes the
	// coordinator exchanged with the dist backend's workers during the
	// job (frames out: job control and intermediate buckets; frames in:
	// relayed buckets, reduce output, reports). Zero for the local
	// backends. Chained jobs whose self-addressed pairs stay
	// worker-resident show it here: RemoteBytesOut covers only the
	// cross-partition traffic. A job's counts include the traffic since
	// the previous job ended and its recovery's re-runs, so summed over
	// the jobs of a cluster they are its transport totals.
	RemoteBytesOut int64
	RemoteBytesIn  int64
	// WorkerRecoveries counts the job attempts that were abandoned to a
	// worker death and retried on the survivors (dist backend only): a
	// job that succeeds first try reports zero. ReseededPartitions
	// counts the partitions of the job's input put on a new owner:
	// rebuilt, seeded, or recomputed. Partitions of intermediate outputs
	// that a recompute re-runs are not counted in it.
	WorkerRecoveries   int64
	ReseededPartitions int64
	// HeartbeatTimeouts counts workers the health monitor declared lost
	// during the job for staying silent while it waited on them (dist
	// backend only).
	HeartbeatTimeouts int64
	// SpeculativeLaunches, SpillBytesSaved, MapTaskRetries,
	// ReduceTaskRetries and WorkerReconnects are always zero: the engine
	// has no straggler speculation, no block compression, no simulated
	// task failures and no session resume (a severed worker is a lost
	// one). The fields stay only for the benchmark harness that still
	// reads them.
	SpeculativeLaunches int64
	SpillBytesSaved     int64
	MapTaskRetries      int64
	ReduceTaskRetries   int64
	WorkerReconnects    int64
	// WorkerWall is the largest map+reduce wall clock any single dist
	// worker reported for the job — the distributed critical path: the
	// MapWall plus the ReduceWall of the worker's executor. The wait at
	// the flush barrier, between the two, is in neither term. Zero for
	// the local backends.
	WorkerWall time.Duration
	// MapWall, ShuffleWall and ReduceWall are the wall-clock durations
	// of the job's phases: the parallel map tasks (including map-side
	// partitioning of the emitted pairs), shuffle finalization (sealing
	// the backend and handing a group stream to every reduce partition
	// — cheap by design, since partitioning already happened map-side
	// and grouping happens reduce-side), and the parallel reduce tasks
	// (including each partition's group sort). Driver totals accumulate
	// these across rounds.
	MapWall     time.Duration
	ShuffleWall time.Duration
	ReduceWall  time.Duration
}

// addMapOutput records one completed map split's emitted-pair count.
func (s *Stats) addMapOutput(n int64) { atomic.AddInt64(&s.MapOutputRecords, n) }

// addRouted records one completed map task's identity-routed and
// hash-routed pair counts.
func (s *Stats) addRouted(local, cross int64) {
	atomic.AddInt64(&s.LocalRouted, local)
	atomic.AddInt64(&s.CrossRouted, cross)
}

// addReduceGroups records one completed reduce task's key-group count.
func (s *Stats) addReduceGroups(n int64) { atomic.AddInt64(&s.ReduceGroups, n) }

// snapPool snapshots the pool's cumulative counters and returns a
// closure that adds the delta accrued while the job ran to what the dist
// workers reported for their own pools. Jobs under one Driver run
// sequentially, so the delta is the job's own traffic.
func (s *Stats) snapPool(p *BufferPool) func() {
	if p == nil {
		return func() {}
	}
	b0, m0 := p.counters()
	return func() {
		b1, m1 := p.counters()
		s.PooledBytes += b1 - b0
		s.PoolMisses += m1 - m0
	}
}

// recordShuffle copies the shuffle backend's footprint into the stats
// once the job's tasks have finished with it.
func (s *Stats) recordShuffle(backend any) {
	if fp, ok := backend.(shuffleFootprint); ok {
		s.ShuffleRecords, s.SpilledRecords, s.SpillRuns = fp.footprint()
	}
}

func newStats(name string) *Stats {
	return &Stats{Name: name}
}

// Add accumulates another job's footprint into s (used by Driver to total
// an iterative computation).
func (s *Stats) Add(o *Stats) {
	if o == nil {
		return
	}
	s.MapInputRecords += o.MapInputRecords
	s.MapOutputRecords += atomic.LoadInt64(&o.MapOutputRecords)
	s.LocalRouted += atomic.LoadInt64(&o.LocalRouted)
	s.CrossRouted += atomic.LoadInt64(&o.CrossRouted)
	s.ShuffleRecords += o.ShuffleRecords
	s.ReduceGroups += atomic.LoadInt64(&o.ReduceGroups)
	s.ReduceOutputRecords += o.ReduceOutputRecords
	s.SpilledRecords += o.SpilledRecords
	s.SpillRuns += o.SpillRuns
	s.PooledBytes += o.PooledBytes
	s.PoolMisses += o.PoolMisses
	s.RemoteBytesOut += o.RemoteBytesOut
	s.RemoteBytesIn += o.RemoteBytesIn
	s.WorkerRecoveries += o.WorkerRecoveries
	s.ReseededPartitions += o.ReseededPartitions
	s.HeartbeatTimeouts += o.HeartbeatTimeouts
	s.WorkerWall += o.WorkerWall
	s.MapWall += o.MapWall
	s.ShuffleWall += o.ShuffleWall
	s.ReduceWall += o.ReduceWall
}

// String renders the stats on one line.
func (s *Stats) String() string {
	name := s.Name
	if name == "" {
		name = "job"
	}
	line := fmt.Sprintf("%s: in=%d mapout=%d shuffle=%d groups=%d out=%d",
		name, s.MapInputRecords, s.MapOutputRecords, s.ShuffleRecords,
		s.ReduceGroups, s.ReduceOutputRecords)
	if s.LocalRouted > 0 {
		line += fmt.Sprintf(" local=%d cross=%d", s.LocalRouted, s.CrossRouted)
	}
	if s.SpilledRecords > 0 {
		line += fmt.Sprintf(" spilled=%d runs=%d", s.SpilledRecords, s.SpillRuns)
	}
	if s.PooledBytes > 0 || s.PoolMisses > 0 {
		line += fmt.Sprintf(" pooled=%dB poolmiss=%d", s.PooledBytes, s.PoolMisses)
	}
	if s.RemoteBytesOut > 0 || s.RemoteBytesIn > 0 {
		line += fmt.Sprintf(" remote=%dB out/%dB in workerwall=%s",
			s.RemoteBytesOut, s.RemoteBytesIn, s.WorkerWall.Round(time.Microsecond))
	}
	if s.WorkerRecoveries > 0 || s.ReseededPartitions > 0 {
		line += fmt.Sprintf(" recoveries=%d reseeded=%d hbtimeouts=%d",
			s.WorkerRecoveries, s.ReseededPartitions, s.HeartbeatTimeouts)
	}
	if s.MapWall > 0 || s.ShuffleWall > 0 || s.ReduceWall > 0 {
		line += fmt.Sprintf(" map=%s shuffle=%s reduce=%s",
			s.MapWall.Round(time.Microsecond),
			s.ShuffleWall.Round(time.Microsecond),
			s.ReduceWall.Round(time.Microsecond))
	}
	return line
}
