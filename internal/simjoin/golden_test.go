package simjoin

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/vector"
)

// The join's other tests compare similarities within 1e-12 / 1e-9, so a
// verification that summed the same products in another order would pass
// them all. This file pins the join's output on one seeded tf·idf corpus
// bit for bit — edge count, candidate count, index size and a SHA-256
// over every (item, consumer, float bits) in output order — on the
// memory backend, on a spill backend whose budget overflows in both jobs,
// and on two loopback dist workers. If it fails, the candidate stream or
// the order of a floating-point sum moved: do not edit the literals.

const (
	goldenSigma      = 0.2
	goldenEdges      = 3920
	goldenCandidates = 11468
	goldenPostings   = 8511
	goldenDigest     = "9afbe69f301ed3b969b29f867bee3d01c25fa13051b202065102baebc76fb9b6"
)

// goldenCorpus is the pinned input: dataset.Answers is seeded, so every
// call returns the same vectors.
func goldenCorpus() (items, consumers []vector.Sparse) {
	cfg := dataset.AnswersScaledConfig()
	cfg.NumItems, cfg.NumConsumers, cfg.Seed = 1300, 275, 21
	c := dataset.Answers("golden", cfg)
	return c.Items, c.Consumers
}

// edgeDigest hashes the edges in output order, similarities by their
// bits.
func edgeDigest(edges []Edge) string {
	h := sha256.New()
	var rec [16]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(rec[0:], uint32(e.Item))
		binary.LittleEndian.PutUint32(rec[4:], uint32(e.Consumer))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(e.Sim))
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkGolden compares one join result with the pinned literals.
func checkGolden(t *testing.T, res *Result) {
	t.Helper()
	if len(res.Edges) != goldenEdges || res.Candidates != goldenCandidates || res.PostingEntries != goldenPostings {
		t.Fatalf("edges / candidates / postings = %d / %d / %d, want %d / %d / %d",
			len(res.Edges), res.Candidates, res.PostingEntries, goldenEdges, goldenCandidates, goldenPostings)
	}
	if got := edgeDigest(res.Edges); got != goldenDigest {
		t.Fatalf("edge digest %s, want %s", got, goldenDigest)
	}
}

// goldenBackends runs fn once per shuffle backend, handing it that
// backend's configuration: memory, spill with a budget far below either
// job's records, and dist over two in-process loopback workers that
// registered the golden corpus. fn may adjust the configuration it is
// given before joining.
func goldenBackends(t *testing.T, fn func(t *testing.T, items, consumers []vector.Sparse, mr mapreduce.Config)) {
	items, consumers := goldenCorpus()
	t.Run("memory", func(t *testing.T) {
		fn(t, items, consumers, mapreduce.Config{Mappers: 3, Reducers: 3})
	})
	t.Run("spill", func(t *testing.T) {
		fn(t, items, consumers, mapreduce.Config{
			Mappers: 3, Reducers: 3,
			Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleSpill, MemoryBudget: 512},
		})
	})
	t.Run("dist", func(t *testing.T) {
		RegisterDistJobs(items, consumers, goldenSigma)
		var wg sync.WaitGroup
		cl, err := mapreduce.StartDistCluster(2, mapreduce.DistClusterOptions{
			Timeout: 30 * time.Second,
			OnListen: func(addr string) {
				for i := 0; i < 2; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						mapreduce.ServeDistWorker(context.Background(), addr)
					}()
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { cl.Close(); wg.Wait() }()
		fn(t, items, consumers, mapreduce.Config{
			Mappers: 3, Reducers: 3,
			Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
			Dist:    cl,
		})
	})
}

func TestJoinGolden(t *testing.T) {
	goldenBackends(t, func(t *testing.T, items, consumers []vector.Sparse, mr mapreduce.Config) {
		res, err := Join(context.Background(), items, consumers, goldenSigma, Options{MR: mr})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, res)
		if mr.Shuffle.Backend == mapreduce.ShuffleSpill && res.Shuffle.SpilledRecords == 0 {
			t.Fatal("spill backend never spilled on the golden corpus")
		}
	})
}
