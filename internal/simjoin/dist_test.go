package simjoin

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/vector"
)

// TestJoinIdenticalOnDistBackend is the end-to-end similarity-join
// equivalence run of the distributed mode: two in-process workers over
// loopback must reproduce the memory backend's edge set exactly —
// values bit for bit — and the workers' reduce-group counts must sum
// to the same Candidates total the memory backend reports.
func TestJoinIdenticalOnDistBackend(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	randVec := func() vector.Sparse {
		entries := make([]vector.Entry, 0, 8)
		for term := 0; term < 40; term++ {
			if rng.Float64() < 0.15 {
				entries = append(entries, vector.Entry{
					Term:   vector.TermID(term),
					Weight: 0.25 + rng.Float64(),
				})
			}
		}
		return vector.FromEntries(entries)
	}
	items := make([]vector.Sparse, 50)
	consumers := make([]vector.Sparse, 40)
	for i := range items {
		items[i] = randVec()
	}
	for i := range consumers {
		consumers[i] = randVec()
	}
	const sigma = 1.0
	RegisterDistJobs(items, consumers, sigma)

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

	ctx := context.Background()
	mem, err := Join(ctx, items, consumers, sigma, Options{
		MR: mapreduce.Config{Mappers: 3, Reducers: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Join(ctx, items, consumers, sigma, Options{
		MR: mapreduce.Config{
			Mappers: 3, Reducers: 3,
			Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
			Dist:    cl,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.Edges) == 0 {
		t.Fatal("fixture produced no join edges; raise density")
	}
	sameEdges(t, dist.Edges, mem.Edges)
	if dist.Candidates != mem.Candidates {
		t.Fatalf("candidate counts diverge: memory %d, dist %d (worker group counts lost?)", mem.Candidates, dist.Candidates)
	}
	if dist.PostingEntries != mem.PostingEntries {
		t.Fatalf("posting totals diverge: memory %d, dist %d", mem.PostingEntries, dist.PostingEntries)
	}
	if dist.Shuffle.RemoteBytesOut == 0 {
		t.Fatal("dist join reports no remote traffic")
	}
}
