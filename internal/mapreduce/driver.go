package mapreduce

import (
	"errors"
	"fmt"
	"slices"
)

// Driver coordinates an iterative MapReduce computation: a chain of jobs
// executed until a fixed point. It owns the round counter that the
// paper's experimental section reports ("number of MapReduce iterations")
// and aggregates per-job statistics.
//
// Algorithms register each job execution through RunJobDS, or record a
// job they ran themselves with Observe. MaxRounds guards against runaway
// iteration; the b-matching algorithms are proven to converge, so hitting
// the limit indicates a bug and surfaces as ErrRoundLimit.
type Driver struct {
	cfg Config
	// MaxRounds aborts the computation when exceeded. Zero means no
	// limit.
	MaxRounds int

	rounds int
	total  Stats
	trace  []Stats
	// ownPool is set when NewDriver attached cfg.Pool itself; only then
	// does Release empty it.
	ownPool bool
}

// ErrRoundLimit is returned when a Driver exceeds its MaxRounds budget.
var ErrRoundLimit = errors.New("mapreduce: round limit exceeded")

// NewDriver returns a Driver that runs its jobs with the given base
// configuration. Unless the configuration already carries one, the
// driver attaches a fresh BufferPool, so the rounds of an iterative
// computation recycle their shuffle and group-sort buffers instead of
// re-allocating them (see BufferPool); Stats.PooledBytes/PoolMisses
// report the traffic per job and in the driver totals.
func NewDriver(cfg Config) *Driver {
	own := cfg.Pool == nil
	if own {
		cfg.Pool = NewBufferPool()
	}
	return &Driver{cfg: cfg, ownPool: own}
}

// Release empties the BufferPool NewDriver attached; a computation
// defers it once it owns the driver. The free lists are garbage when the
// computation returns, but any word that still points at the pool or one
// of its arenas keeps all of them alive. A stale one is enough: a task
// goroutine reuses an earlier task's stack, and the collector scans the
// innermost frame of an asynchronously preempted goroutine
// conservatively, so one cycle can mark every buffer of a finished
// computation and set the next heap goal by their size. A pool passed in
// Config.Pool is the caller's and is left alone. Datasets the driver's
// jobs produced stay valid; a later Recycle refills the pool.
func (d *Driver) Release() {
	if d.ownPool {
		d.cfg.Pool.release()
	}
}

// Config returns the Driver's base job configuration with the given name
// applied; use it when invoking Run or RunDS directly.
func (d *Driver) Config(name string) Config {
	c := d.cfg
	c.Name = name
	return c
}

// Rounds returns the number of jobs executed so far.
func (d *Driver) Rounds() int { return d.rounds }

// Partitions returns the reduce partition count of the Driver's jobs —
// the partition count an input Dataset must be built with (see
// PartitionDataset, BuildDataset) for the jobs to chain partition-resident.
func (d *Driver) Partitions() int { return d.cfg.reducers() }

// Total returns aggregate statistics over all rounds.
func (d *Driver) Total() Stats { return d.total }

// Trace returns per-round statistics in execution order.
func (d *Driver) Trace() []Stats { return d.trace }

// Observe records one executed job against the round budget. When the
// driver's cluster journals the run, every observed job is also a
// commit point: the job's journal records become durable, and a
// coordinator restarted after this moment replays the job from the
// journal instead of re-running it.
func (d *Driver) Observe(s *Stats) error {
	d.rounds++
	if cl := d.cfg.Dist; cl != nil {
		cl.journalCommit(d.rounds)
	}
	if s != nil {
		d.total.Add(s)
		d.trace = append(d.trace, *s)
	} else {
		d.trace = append(d.trace, Stats{})
	}
	if d.MaxRounds > 0 && d.rounds > d.MaxRounds {
		return fmt.Errorf("%w (%d rounds)", ErrRoundLimit, d.rounds)
	}
	return nil
}

// Identity returns a map function that forwards its input unchanged.
// Useful for jobs whose work happens entirely in the reducer.
func Identity[K comparable, V any]() MapFunc[K, V, K, V] {
	return func(key K, value V, out Emitter[K, V]) error {
		out.Emit(key, value)
		return nil
	}
}

// CollectValues is a reduce function that re-emits the key with a copy
// of its value slice, for jobs whose work happens entirely in the
// mapper. The copy is required, not defensive: the engine owns the
// values slice and reuses its backing array for later groups and
// rounds (see ReduceFunc), so the emitted slice must be the reducer's
// own.
func CollectValues[K comparable, V any]() ReduceFunc[K, V, K, []V] {
	return func(key K, values []V, out Emitter[K, []V]) error {
		out.Emit(key, slices.Clone(values))
		return nil
	}
}
