package mapreduce

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/mapreduce/remote"
)

// The toy job of TestStateJobMatchesSelfMessageJob, written both ways. A
// node's state is the list of nodes it writes to; each round it sends its
// id to every one of them, and its reduce folds what arrived into the
// next list. toyStep is that reduce, shared by both forms: a key without
// a record reports itself on the side output and emits nothing.

const toyNodes = 320

// toyInput holds records for the keys below 300 that are not multiples
// of 7, in ascending order. Their targets lie in [0, 280) — multiples of
// 7 among them, which have no record — and in [300, 320), where no key
// has one; keys 280…299 have a record and are sent nothing.
func toyInput() []Pair[int32, int64s] {
	var in []Pair[int32, int64s]
	for k := int32(0); k < 300; k++ {
		if k%7 != 0 {
			in = append(in, P(k, int64s{int64((k*3 + 1) % 280), int64(300 + k%20), int64((k * k) % 280)}))
		}
	}
	return in
}

func toyStep(k int32, state *int64s, msgs []int32, out Emitter[int32, int64s]) error {
	if state == nil {
		out.(SideEmitter).EmitSide(uint64(k)<<32 | uint64(len(msgs)))
		return nil
	}
	acc := int32(len(*state))
	for _, m := range msgs {
		acc = acc*31 + m // order-sensitive
	}
	next := make(int64s, 0, len(*state))
	for i, t := range *state {
		u := (int32(t) + acc + int32(i)) % toyNodes
		if u < 0 {
			u += toyNodes
		}
		// Keep round two's targets off the record-only band, too.
		if u >= 280 && u < 300 {
			u -= 100
		}
		next = append(next, int64(u))
	}
	out.Emit(k, next)
	return nil
}

// State form.

func toyStateMap(k int32, targets int64s, out Emitter[int32, int32]) error {
	for _, t := range targets {
		out.Emit(int32(t), k)
	}
	return nil
}

// Self-message form: the map sends the state to its own key first, and
// the reduce picks it out of the group.

type toyMsg struct {
	self    int64s
	hasSelf bool
	from    int32
}

func (m toyMsg) AppendBinary(buf []byte) ([]byte, error) {
	var self byte
	if m.hasSelf {
		self = 1
	}
	buf = binary.AppendVarint(append(buf, self), int64(m.from))
	for _, t := range m.self {
		buf = binary.AppendVarint(buf, t)
	}
	return buf, nil
}

func (m *toyMsg) UnmarshalBinary(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("empty toyMsg")
	}
	*m = toyMsg{hasSelf: data[0] == 1}
	data = data[1:]
	for i := 0; len(data) > 0; i++ {
		x, n := binary.Varint(data)
		if n <= 0 {
			return fmt.Errorf("corrupt toyMsg")
		}
		if data = data[n:]; i == 0 {
			m.from = int32(x)
		} else {
			m.self = append(m.self, x)
		}
	}
	return nil
}

func toySelfMap(k int32, targets int64s, out Emitter[int32, toyMsg]) error {
	out.Emit(k, toyMsg{self: targets, hasSelf: true})
	for _, t := range targets {
		out.Emit(int32(t), toyMsg{from: k})
	}
	return nil
}

func toySelfReduce(k int32, group []toyMsg, out Emitter[int32, int64s]) error {
	var state *int64s
	var msgs []int32
	for i := range group {
		if group[i].hasSelf {
			state = &group[i].self
		} else {
			msgs = append(msgs, group[i].from)
		}
	}
	return toyStep(k, state, msgs, out)
}

func registerToyJobs() {
	RegisterDistMapReduce("toy-self", toySelfMap, toySelfReduce)
	RegisterDistJob("toy-state", func([]byte) (DistJob[int32, int64s, int32, int32, int32, int64s], error) {
		return DistJob[int32, int64s, int32, int32, int32, int64s]{Map: toyStateMap, StateReduce: toyStep}, nil
	})
	RegisterDistJob("stamp", func([]byte) (DistJob[int32, int64s, int32, int64, int32, int64s], error) {
		return DistJob[int32, int64s, int32, int64, int32, int64s]{Map: stampMap, StateReduce: stampReduce}, nil
	})
	RegisterDistBuild("toy-build", func([]byte) (func(int, func(int32) bool) []Pair[int32, int64s], error) {
		return toyPartBuilder(nil), nil
	})
}

// toyBackends are the three backends under a configuration whose
// partition count differs from its mapper count; the spill budget makes
// every partition write runs.
func toyBackends(t *testing.T) []Config {
	base := Config{Mappers: 3, Reducers: 5}
	mem, spill, dist := base, base, base
	spill.Shuffle = ShuffleConfig{Backend: ShuffleSpill, MemoryBudget: 320}
	dist.Shuffle = ShuffleConfig{Backend: ShuffleDist}
	dist.Dist = startTestCluster(t, 2)
	return []Config{mem, spill, dist}
}

// recordCounters are the Stats fields both forms of a job must agree on.
func recordCounters(s *Stats) [7]int64 {
	return [7]int64{s.MapInputRecords, s.MapOutputRecords, s.ShuffleRecords, s.LocalRouted, s.CrossRouted,
		s.ReduceGroups, s.ReduceOutputRecords}
}

// TestStateJobMatchesSelfMessageJob is the state job's differential: the
// toy job above run for two chained rounds as a self-message job with a
// plain reduce and as a state job must agree, round for round, on every
// partition's output in order, on the side output and on every record
// counter — on the memory, spill and dist backends, with keys that have a
// record and no message, and messages for keys with no record.
func TestStateJobMatchesSelfMessageJob(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range toyBackends(t) {
		t.Run(string(cfg.Shuffle.kind()), func(t *testing.T) {
			selfCfg, stateCfg := cfg, cfg
			selfCfg.Name, stateCfg.Name = "toy-self", "toy-state"
			selfIn := PartitionDataset(toyInput(), cfg.reducers())
			stateIn := PartitionDataset(toyInput(), cfg.reducers())
			sides, lonely := 0, false
			for round := 0; round < 2; round++ {
				want, wantStats, err := RunDS(ctx, selfCfg, selfIn, toySelfMap, toySelfReduce)
				if err != nil {
					t.Fatalf("round %d, self-message form: %v", round, err)
				}
				got, gotStats, err := RunStateDS(ctx, stateCfg, stateIn, toyStateMap, toyStep)
				if err != nil {
					t.Fatalf("round %d, state form: %v", round, err)
				}
				if g, w := recordCounters(gotStats), recordCounters(wantStats); g != w {
					t.Errorf("round %d: counters (in, mapout, shuffle, local, cross, groups, out):\n got %v\nwant %v", round, g, w)
				}
				if gotStats.LocalRouted < gotStats.MapInputRecords {
					t.Errorf("round %d: %d records forwarded, only %d local-routed", round, gotStats.MapInputRecords, gotStats.LocalRouted)
				}
				if gotStats.ReduceGroups <= gotStats.MapInputRecords {
					t.Errorf("round %d: %d reduce calls for %d records: no record-less key was reduced", round, gotStats.ReduceGroups, gotStats.MapInputRecords)
				}
				if cfg.Shuffle.kind() == ShuffleSpill && gotStats.SpillRuns == 0 {
					t.Errorf("round %d: the spill backend wrote no run", round)
				}
				if !reflect.DeepEqual(got.Side(), want.Side()) {
					t.Errorf("round %d: side output:\n got %v\nwant %v", round, got.Side(), want.Side())
				}
				for _, part := range got.Side() {
					sides += len(part)
				}
				// The next round consumes both outputs where they are
				// (on dist: worker-resident); compare copies.
				gotParts, wantParts := cloneParts(t, got), cloneParts(t, want)
				if !reflect.DeepEqual(gotParts, wantParts) {
					t.Errorf("round %d: output differs", round)
				}
				for _, part := range gotParts {
					for _, p := range part {
						lonely = lonely || (round == 0 && p.Key == 290)
					}
				}
				selfIn, stateIn = want, got
			}
			selfIn.Recycle()
			stateIn.Recycle()
			if sides == 0 || !lonely {
				t.Errorf("the case lost its point: %d record-less keys reduced, key 290 (a record, no message) reduced: %t",
					sides, lonely)
			}
		})
	}
}

// cloneParts copies a job output's partitions for a comparison that must
// not consume it: a worker-resident Dataset is fetched and placed on its
// cluster again (placeResident), so the next round still reads it where
// it resides, side output included.
func cloneParts(t *testing.T, ds *Dataset[int32, int64s]) [][]Pair[int32, int64s] {
	t.Helper()
	if rem := ds.rem; rem != nil {
		if err := ds.Materialize(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			placed, err := placeResident(rem.cl, ds, Config{Pool: ds.pool})
			if err != nil {
				t.Fatal(err)
			}
			placed.side = ds.side
			*ds = *placed
		}()
	}
	parts := make([][]Pair[int32, int64s], ds.Partitions())
	for p := range parts {
		parts[p] = append(parts[p], ds.Part(p)...)
	}
	return parts
}

// TestStateJobRefusesUnorderedInput: a partition that is not in group
// order — a key below its predecessor, or the same key twice — fails the
// job with the partition and the record's index, on every backend; it is
// neither sorted silently nor joined wrongly.
func TestStateJobRefusesUnorderedInput(t *testing.T) {
	descending := toyInput()
	for i, j := 0, len(descending)-1; i < j; i, j = i+1, j-1 {
		descending[i], descending[j] = descending[j], descending[i]
	}
	twice := append(toyInput()[:3:3], toyInput()[2:]...)
	base := Config{Mappers: 2, Reducers: 1, Name: "toy-state"}
	spill, dist := base, base
	spill.Shuffle = ShuffleConfig{Backend: ShuffleSpill, MemoryBudget: 64}
	dist.Shuffle = ShuffleConfig{Backend: ShuffleDist}
	dist.Dist = startTestCluster(t, 1)
	for _, tc := range []struct {
		name  string
		cfg   Config
		input []Pair[int32, int64s]
		want  string
	}{
		{"memory/descending", base, descending, "input partition 0 is out of group order at record 1 (key 298 after 299)"},
		{"memory/duplicate", base, twice, "input partition 0 is out of group order at record 3 (key 3 after 3)"},
		{"spill/descending", spill, descending, "input partition 0 is out of group order at record 1 (key 298 after 299)"},
		{"dist/descending", dist, descending, "input partition 0 is out of group order at record 1 (key 298 after 299)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := RunStateDS(context.Background(), tc.cfg, PartitionDataset(tc.input, 1), toyStateMap, toyStep)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}

// The "stamp" job of TestStateJobMapWritesReachReduce: a state job whose
// map writes its record. A node's state is [seed, stamp]; the map writes
// the stamp — computed from the seed and the key, which it never writes —
// and sends it to two other nodes; the reduce folds the stamp the map
// left in the record with the stamps that arrived into the next seed and
// clears the stamp again, so a write that did not reach the reduce shows
// in every later round.

const stampNodes = 240

func stampInput() []Pair[int32, int64s] {
	in := make([]Pair[int32, int64s], stampNodes)
	for k := range in {
		in[k] = P(int32(k), int64s{int64(k)*2654435761 + 1, 0})
	}
	return in
}

func stampOf(k int32, seed int64) int64 { return int64(mix64(uint64(seed)^uint64(k)) >> 8) }

func stampTargets(k int32) [2]int32 { return [2]int32{(k + 1) % stampNodes, (k*7 + 3) % stampNodes} }

// stampMapCalls counts stampMap calls, the in-process workers' included.
var stampMapCalls atomic.Int64

func stampMap(k int32, st int64s, out Emitter[int32, int64]) error {
	stampMapCalls.Add(1)
	st[1] = stampOf(k, st[0])
	for _, t := range stampTargets(k) {
		out.Emit(t, st[1])
	}
	return nil
}

func stampReduce(k int32, st *int64s, msgs []int64, out Emitter[int32, int64s]) error {
	s := *st // every key has a record
	next := s[1] * 31
	for _, m := range msgs {
		next += m
	}
	s[0], s[1] = next, 0
	out.Emit(k, s)
	return nil
}

// stampReference is the stamp job's rounds computed serially.
func stampReference(rounds int) []Pair[int32, int64s] {
	recs := stampInput()
	for r := 0; r < rounds; r++ {
		stamps, sums := make([]int64, stampNodes), make([]int64, stampNodes)
		for k, p := range recs {
			stamps[k] = stampOf(p.Key, p.Value[0])
			for _, t := range stampTargets(p.Key) {
				sums[t] += stamps[k]
			}
		}
		for k := range recs {
			recs[k].Value[0] = stamps[k]*31 + sums[k]
		}
	}
	return recs
}

// stampRounds chains rounds of the stamp job over cfg, calling before(i)
// ahead of round i, and returns the final records and every round's Stats.
func stampRounds(t *testing.T, cfg Config, rounds int, before func(round int)) ([]Pair[int32, int64s], []*Stats) {
	t.Helper()
	ds := PartitionDataset(stampInput(), cfg.reducers())
	var stats []*Stats
	for i := 0; i < rounds; i++ {
		if before != nil {
			before(i)
		}
		next, st, err := RunStateDS(context.Background(), cfg, ds, stampMap, stampReduce)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		stats = append(stats, st)
		ds.Recycle()
		ds = next
	}
	if err := ds.Materialize(); err != nil {
		t.Fatal(err)
	}
	return ds.Collect(), stats
}

// TestStateJobMapWritesReachReduce pins the contract of a state job's map
// that writes its record (RunStateDS): the key's reduce sees the write,
// on the memory backend, on spill under a budget that writes at least
// three runs per job, and on two loopback dist workers — there also when
// an attempt loses a worker before its flush (worker 1 severed at the
// first frame it sends in round 1): the survivor runs the attempt to its
// end, so its reduce consumes the input its map wrote, and the retry maps
// every partition again from the restored input. Every case ends
// bit-identical to memory, which equals a serial computation of the
// rounds.
func TestStateJobMapWritesReachReduce(t *testing.T) {
	const rounds, victim = 3, 1
	want := stampReference(rounds)
	mem, _ := stampRounds(t, Config{Mappers: 3, Reducers: 4}, rounds, nil)
	if !reflect.DeepEqual(mem, want) {
		t.Fatal("memory backend diverges from the serial rounds: a map's write did not reach its reduce")
	}
	spill := Config{Mappers: 3, Reducers: 4, Shuffle: ShuffleConfig{Backend: ShuffleSpill, MemoryBudget: 64, TempDir: t.TempDir()}}
	got, stats := stampRounds(t, spill, rounds, nil)
	if !reflect.DeepEqual(got, mem) {
		t.Error("spill diverges from memory")
	}
	for i, st := range stats {
		if st.SpillRuns < 3 {
			t.Errorf("spill round %d wrote %d runs, want at least 3", i, st.SpillRuns)
		}
	}
	if got, _ := stampRounds(t, distCfg4(startTestCluster(t, 2), "stamp"), rounds, nil); !reflect.DeepEqual(got, mem) {
		t.Error("dist diverges from memory")
	}

	cl := startTestCluster(t, 2)
	var calls int64
	got, stats = stampRounds(t, distCfg4(cl, "stamp"), rounds, func(round int) {
		if round == 1 {
			calls = stampMapCalls.Load()
			if err := cl.InjectFault(victim, &remote.Fault{Op: remote.FaultSever, AfterReads: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if round == 2 {
			calls = stampMapCalls.Load() - calls
		}
	})
	if st := stats[1]; st.WorkerRecoveries < 1 || st.ReseededPartitions != 4 {
		t.Fatalf("round 1: recoveries=%d reseeded=%d, want >= 1 and all 4 partitions — the lost attempt's survivor no longer consumes its input",
			st.WorkerRecoveries, st.ReseededPartitions)
	}
	if calls <= stampNodes {
		t.Fatalf("round 1 made %d map calls for %d records: no record was mapped twice", calls, stampNodes)
	}
	if !reflect.DeepEqual(got, mem) {
		t.Fatal("a retry after a pre-flush loss diverges from memory: the retry's map over the restored input wrote other values")
	}
}
