package mapreduce

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestInjectedFailuresAreTransparent(t *testing.T) {
	// With failure injection the output must be identical to a clean
	// run — re-execution is invisible, like real MapReduce fault
	// tolerance.
	input := make([]Pair[int, int], 300)
	for i := range input {
		input[i] = P(i, i)
	}
	mapFn := func(k, v int, out Emitter[int, int]) error {
		out.Emit(k%17, v)
		return nil
	}
	redFn := func(k int, vs []int, out Emitter[int, int]) error {
		s := 0
		for _, v := range vs {
			s += v
		}
		out.Emit(k, s)
		return nil
	}
	clean, _, err := Run(context.Background(),
		Config{Mappers: 4, Reducers: 4}, input, mapFn, redFn)
	if err != nil {
		t.Fatal(err)
	}
	faulty, stats, err := Run(context.Background(),
		Config{Mappers: 4, Reducers: 4, FailureRate: 0.4, FailureSeed: 7, MaxAttempts: 16},
		input, mapFn, redFn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, faulty) {
		t.Error("output changed under failure injection")
	}
	if stats.MapTaskRetries+stats.ReduceTaskRetries == 0 {
		t.Error("no retries recorded at 40% failure rate")
	}
}

func TestInjectedFailuresDeterministic(t *testing.T) {
	input := []Pair[int, int]{P(1, 1), P(2, 2), P(3, 3), P(4, 4)}
	cfg := Config{Mappers: 2, Reducers: 2, FailureRate: 0.5, FailureSeed: 3}
	id := Identity[int, int]()
	cv := CollectValues[int, int]()
	_, a, err := Run(context.Background(), cfg, input, id, cv)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := Run(context.Background(), cfg, input, id, cv)
	if err != nil {
		t.Fatal(err)
	}
	if a.MapTaskRetries != b.MapTaskRetries || a.ReduceTaskRetries != b.ReduceTaskRetries {
		t.Errorf("retry counts differ across identical runs: %d/%d vs %d/%d",
			a.MapTaskRetries, a.ReduceTaskRetries, b.MapTaskRetries, b.ReduceTaskRetries)
	}
}

func TestFailureRateOneExhaustsAttempts(t *testing.T) {
	input := []Pair[int, int]{P(1, 1)}
	_, _, err := Run(context.Background(),
		Config{Mappers: 1, Reducers: 1, FailureRate: 1, MaxAttempts: 3},
		input, Identity[int, int](), CollectValues[int, int]())
	if err == nil {
		t.Error("always-failing task succeeded")
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestTaskFailsPure(t *testing.T) {
	cfg := Config{FailureRate: 0.3, FailureSeed: 11}
	for phase := 0; phase < 2; phase++ {
		for task := 0; task < 20; task++ {
			for attempt := 1; attempt < 4; attempt++ {
				a := cfg.taskFails(phase, task, attempt)
				b := cfg.taskFails(phase, task, attempt)
				if a != b {
					t.Fatal("taskFails not deterministic")
				}
			}
		}
	}
	if (Config{}).taskFails(0, 0, 1) {
		t.Error("zero failure rate fails tasks")
	}
}

func TestGreedyAlgorithmSurvivesFailures(t *testing.T) {
	// End-to-end: an iterative algorithm built on the engine produces
	// identical results under injected failures. Uses the driver
	// directly with a trivial convergence loop.
	d := NewDriver(Config{Mappers: 3, Reducers: 3, FailureRate: 0.3, FailureSeed: 5, MaxAttempts: 16})
	input := []Pair[int, int]{P(1, 10), P(2, 20), P(3, 30)}
	for round := 0; round < 5; round++ {
		out, stats, err := Run(context.Background(), d.Config("halve"), input,
			func(k, v int, o Emitter[int, int]) error {
				o.Emit(k, v/2)
				return nil
			},
			func(k int, vs []int, o Emitter[int, int]) error {
				o.Emit(k, vs[0])
				return nil
			})
		if err == nil {
			err = d.Observe(stats)
		}
		if err != nil {
			t.Fatal(err)
		}
		input = out
	}
	want := map[int]int{1: 0, 2: 0, 3: 0}
	for _, p := range input {
		if p.Value != want[p.Key] {
			t.Errorf("key %d = %d after halving, want 0", p.Key, p.Value)
		}
	}
	if d.Total().MapTaskRetries == 0 && d.Total().ReduceTaskRetries == 0 {
		t.Log("note: no retries occurred at this seed (acceptable but unusual)")
	}
}
