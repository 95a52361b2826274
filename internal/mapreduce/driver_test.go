package mapreduce

import (
	"context"
	"errors"
	"testing"
)

func TestDriverCountsRounds(t *testing.T) {
	d := NewDriver(Config{Mappers: 2, Reducers: 2})
	input := []Pair[int, int]{P(1, 10), P(2, 20)}
	for i := 0; i < 3; i++ {
		var stats *Stats
		var err error
		input, stats, err = Run(context.Background(), d.Config("inc"), input,
			func(k, v int, out Emitter[int, int]) error {
				out.Emit(k, v+1)
				return nil
			},
			func(k int, vs []int, out Emitter[int, int]) error {
				out.Emit(k, vs[0])
				return nil
			})
		if err == nil {
			err = d.Observe(stats)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if d.Rounds() != 3 {
		t.Errorf("Rounds = %d, want 3", d.Rounds())
	}
	if got := d.Total().MapInputRecords; got != 6 {
		t.Errorf("Total MapInputRecords = %d, want 6", got)
	}
	if len(d.Trace()) != 3 {
		t.Errorf("Trace length = %d, want 3", len(d.Trace()))
	}
	for _, p := range input {
		if p.Value != map[int]int{1: 13, 2: 23}[p.Key] {
			t.Errorf("after 3 rounds, %d = %d", p.Key, p.Value)
		}
	}
}

func TestDriverRoundLimit(t *testing.T) {
	d := NewDriver(Config{})
	d.MaxRounds = 2
	input := []Pair[int, int]{P(1, 1)}
	var err error
	for i := 0; i < 5 && err == nil; i++ {
		var stats *Stats
		_, stats, err = Run(context.Background(), d.Config("noop"), input,
			forwardMap[int, int], gatherReduce[int, int])
		if err == nil {
			err = d.Observe(stats)
		}
	}
	if !errors.Is(err, ErrRoundLimit) {
		t.Errorf("err = %v, want ErrRoundLimit", err)
	}
}

func TestDriverObserveNil(t *testing.T) {
	d := NewDriver(Config{})
	if err := d.Observe(nil); err != nil {
		t.Fatal(err)
	}
	if d.Rounds() != 1 {
		t.Errorf("Rounds = %d, want 1", d.Rounds())
	}
}

func TestDriverConfigName(t *testing.T) {
	d := NewDriver(Config{Mappers: 3})
	cfg := d.Config("phase-7")
	if cfg.Name != "phase-7" || cfg.Mappers != 3 {
		t.Errorf("Config = %+v", cfg)
	}
}

func TestStatsAdd(t *testing.T) {
	a := &Stats{MapInputRecords: 1, MapOutputRecords: 2, ShuffleRecords: 2,
		ReduceGroups: 1, ReduceOutputRecords: 1}
	b := &Stats{MapInputRecords: 10, MapOutputRecords: 20, ShuffleRecords: 20,
		ReduceGroups: 10, ReduceOutputRecords: 10}
	a.Add(b)
	a.Add(nil)
	if a.MapInputRecords != 11 || a.MapOutputRecords != 22 ||
		a.ShuffleRecords != 22 || a.ReduceGroups != 11 ||
		a.ReduceOutputRecords != 11 {
		t.Errorf("after Add: %+v", a)
	}
}
