package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestCancellationWithinPollInterval holds the task loops to what
// cancelPollEvery promises. A map or reduce function cancels the job's
// context at its N-th invocation (counted across tasks); the job must
// come back with context.Canceled, and from the moment cancel returned
// the functions may run at most cancelPollEvery more times per task —
// the tasks are 4 × 4096 records, so a loop that stopped polling would
// run thousands. The second half is a failing task: its error cancels
// the siblings, which notice through the same poll, and the job reports
// the error, not the cancellation it caused. How many calls the siblings
// get in between the failing call and the cancel is up to the scheduler,
// so there the test only requires that they were stopped short (every
// call after the failing one sleeps 50 µs, which puts a quarter of a
// second between the failure and the end of the input);
// TestReduceErrorCancelsBeforeTeardown has the ordering. Both task-loop
// families (flat Run, chained RunDS) on both local backends.
func TestCancellationWithinPollInterval(t *testing.T) {
	const (
		tasks   = 4
		perTask = 16 * cancelPollEvery
		at      = 3*cancelPollEvery + 17 // mid-interval, after a few polls
	)
	input := make([]Pair[int32, int32], tasks*perTask)
	for i := range input {
		input[i] = P(int32(i), int32(i)) // unique keys: one reduce group per record
	}
	boom := errors.New("boom")
	backends := []struct {
		name    string
		shuffle ShuffleConfig
	}{
		{"memory", ShuffleConfig{}},
		{"spill", ShuffleConfig{Backend: ShuffleSpill, MemoryBudget: 512, TempDir: t.TempDir()}},
	}
	for _, b := range backends {
		for _, chained := range []bool{false, true} {
			for _, phase := range []string{"map", "reduce"} {
				for _, fail := range []bool{false, true} {
					name := fmt.Sprintf("%s/chained=%v/%s/fail=%v", b.name, chained, phase, fail)
					t.Run(name, func(t *testing.T) {
						ctx, cancel := context.WithCancel(context.Background())
						defer cancel()
						var calls, stopped atomic.Int64
						// trip stops the job at the at-th invocation of the
						// phase under test: by cancelling, or by failing.
						trip := func(in string) error {
							if in != phase {
								return nil
							}
							if n := calls.Add(1); n != at {
								if fail && n > at {
									time.Sleep(50 * time.Microsecond)
								}
								return nil
							}
							if fail {
								stopped.Store(at)
								return boom
							}
							cancel()
							stopped.Store(calls.Load())
							return nil
						}
						mapFn := func(k, v int32, out Emitter[int32, int32]) error {
							out.Emit(k, v)
							return trip("map")
						}
						reduceFn := func(k int32, _ []int32, out Emitter[int32, int32]) error {
							out.Emit(k, 0)
							return trip("reduce")
						}
						cfg := Config{Mappers: tasks, Reducers: tasks, Shuffle: b.shuffle}
						var err error
						if chained {
							_, _, err = RunDS(ctx, cfg, PartitionDataset(input, tasks), mapFn, reduceFn)
						} else {
							_, _, err = Run(ctx, cfg, input, mapFn, reduceFn)
						}
						want := context.Canceled
						if fail {
							want = boom
						}
						if !errors.Is(err, want) {
							t.Fatalf("err = %v, want %v", err, want)
						}
						if fail && errors.Is(err, context.Canceled) {
							t.Fatalf("err = %v: the task's own error must win over the cancellation it caused", err)
						}
						limit := int64(tasks * cancelPollEvery)
						if fail {
							limit = int64(len(input)) - at - 1
						}
						if after := calls.Load() - stopped.Load(); after > limit {
							t.Errorf("%d invocations after the job was stopped, want at most %d", after, limit)
						}
					})
				}
			}
		}
	}
}

// TestCancellationOutrunningThePoll: a task with fewer records left
// than the poll interval finishes its loop without looking at the
// context again; the look it takes when it runs out of input must still
// turn a cancelled job into context.Canceled rather than a result.
func TestCancellationOutrunningThePoll(t *testing.T) {
	input := make([]Pair[int32, int32], cancelPollEvery/2)
	for i := range input {
		input[i] = P(int32(i), int32(i))
	}
	for _, phase := range []string{"map", "reduce"} {
		t.Run(phase, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, _, err := Run(ctx, Config{Mappers: 1, Reducers: 1}, input,
				func(k, v int32, out Emitter[int32, int32]) error {
					if phase == "map" && k == 3 {
						cancel()
					}
					out.Emit(k, v)
					return nil
				},
				func(k int32, _ []int32, out Emitter[int32, int32]) error {
					if phase == "reduce" && k == 3 {
						cancel()
					}
					return nil
				})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// slowCloseStream is a one-group partition whose Close — a spill
// partition closing its run files, in real life — does not return until
// release is closed.
type slowCloseStream struct {
	served  bool
	release <-chan struct{}
	timeout <-chan time.Time
	late    *atomic.Bool
}

func (s *slowCloseStream) Next() (int32, []int32, bool, error) {
	ok := !s.served
	s.served = true
	return 0, nil, ok, nil
}

func (s *slowCloseStream) Close() error {
	select {
	case <-s.release:
	case <-s.timeout:
		s.late.Store(true)
	}
	return nil
}

// endlessStream serves groups for as long as it is asked, and closes
// stopped when its task lets go of it.
type endlessStream struct{ stopped chan struct{} }

func (s *endlessStream) Next() (int32, []int32, bool, error) { return 1, nil, true, nil }
func (s *endlessStream) Close() error                        { close(s.stopped); return nil }

// TestReduceErrorCancelsBeforeTeardown: a failing reduce task must
// cancel its siblings before its own stream's teardown, not after. Here
// the failing partition's Close waits for the sibling to stop and the
// sibling stops only by cancellation, so the wrong order cannot finish
// before the timeout.
func TestReduceErrorCancelsBeforeTeardown(t *testing.T) {
	boom := errors.New("boom")
	stopped := make(chan struct{})
	var late atomic.Bool
	streams := []GroupStream[int32, int32]{
		&slowCloseStream{release: stopped, timeout: time.After(5 * time.Second), late: &late},
		&endlessStream{stopped: stopped},
	}
	_, _, err := runReduceParts(context.Background(), Config{Reducers: 2}, streams,
		plainSteps(func(k int32, _ []int32, _ Emitter[int32, int32]) error {
			if k == 0 {
				return boom
			}
			return nil
		}), newStats("teardown"))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if late.Load() {
		t.Fatal("the sibling task was still running when the failing task's stream finished closing: the cancel came after the teardown")
	}
}
