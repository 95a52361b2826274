package mapreduce

import (
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/mapreduce/remote"
)

// TestBuildDSMatchesBuildDataset: BuildDS over a driver's partitions is
// BuildDataset's Dataset, record for record, on memory, spill and two dist
// workers — where the workers build it from their registered builder and
// the coordinator's callback never runs, and Materialize fetches it. When
// the owner of two partitions is severed before the fetch, Materialize
// builds exactly those two here, with the coordinator's callback.
func TestBuildDSMatchesBuildDataset(t *testing.T) {
	want, err := BuildDataset(5, toyPartBuilder(nil))
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, got *Dataset[int32, int64s]) {
		t.Helper()
		if got.Len() != want.Len() || !got.Aligned() || got.Partitions() != want.Partitions() {
			t.Fatalf("%d records in %d partitions (aligned %t), want %d in %d",
				got.Len(), got.Partitions(), got.Aligned(), want.Len(), want.Partitions())
		}
		if err := got.Materialize(); err != nil {
			t.Fatal(err)
		}
		for p := range want.Partitions() {
			if !reflect.DeepEqual(got.Part(p), want.Part(p)) {
				t.Errorf("partition %d:\n got %v\nwant %v", p, got.Part(p), want.Part(p))
			}
		}
	}
	for _, cfg := range toyBackends(t) {
		t.Run(string(cfg.Shuffle.kind()), func(t *testing.T) {
			var local atomic.Int32
			got, err := BuildDS(NewDriver(cfg), "toy-build", nil, toyPartBuilder(func() { local.Add(1) }))
			if err != nil {
				t.Fatal(err)
			}
			onDist := cfg.Shuffle.kind() == ShuffleDist
			if (got.rem != nil) != onDist {
				t.Fatalf("built on the cluster: %t, dist backend: %t", got.rem != nil, onDist)
			}
			check(t, got)
			if n, wantLocal := local.Load(), map[bool]int32{false: 5, true: 0}[onDist]; n != wantLocal {
				t.Errorf("the coordinator built %d partitions, want %d", n, wantLocal)
			}
		})
	}
	t.Run("severed-owner", func(t *testing.T) {
		cl := startTestCluster(t, 2)
		cfg := distCfg(cl, "")
		cfg.Reducers = 5
		var local atomic.Int32
		got, err := BuildDS(NewDriver(cfg), "toy-build", nil, toyPartBuilder(func() { local.Add(1) }))
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.InjectFault(1, &remote.Fault{Op: remote.FaultSever, AfterReads: 1}); err != nil {
			t.Fatal(err)
		}
		check(t, got)
		if n := local.Load(); n != 2 {
			t.Errorf("Materialize built %d partitions here, want worker 1's 2", n)
		}
		if rs := cl.RecoveryStats(); rs.WorkersLost != 1 {
			t.Errorf("%d workers lost, want the severed one", rs.WorkersLost)
		}
	})
}

// FuzzBuildFrame feeds parseBuildFrame — the decoder of the frame that
// asks a worker to build a partition — arbitrary bytes. The contract: an
// error, or a partition inside a partition count of at most maxBuildParts
// and a recipe that survives a re-encode; never a panic. The checked-in
// corpus under testdata/fuzz/FuzzBuildFrame holds a frame as BuildDS
// writes it, a truncated one, one with a trailing byte, one naming a
// partition past its count and one with a count past the bound.
func FuzzBuildFrame(f *testing.F) {
	good := (&distBuild{name: "greedymr-view", params: []byte{3, 1, 7}, parts: 4}).frame(9, 2)
	f.Add(good[1:])
	f.Fuzz(func(t *testing.T, body []byte) {
		seq, part, b, err := parseBuildFrame(remote.NewCursor(body))
		if err != nil {
			return
		}
		if part < 0 || part >= b.parts || b.parts > maxBuildParts {
			t.Fatalf("partition %d of %d from %x", part, b.parts, body)
		}
		frame := b.frame(seq, part)
		seq2, part2, b2, err := parseBuildFrame(remote.NewCursor(frame[1:]))
		if err != nil {
			t.Fatalf("parsing our own build frame: %v", err)
		}
		if seq2 != seq || part2 != part || !reflect.DeepEqual(b2, b) {
			t.Fatalf("round trip changed the frame: seq %d part %d %+v, want seq %d part %d %+v", seq2, part2, b2, seq, part, b)
		}
	})
}
