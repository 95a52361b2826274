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
	items, consumers := distFixture()
	const sigma = 1.0
	RegisterDistJobs(items, consumers, sigma)
	cl := startJoinWorkers(t, 2)

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

// TestDistJoinMapsOnWorkers: both jobs of the join map on the dist
// workers, over input records the workers build from their own vectors
// (BuildDS), so the coordinator maps nothing and ships no record: it
// sends the pruned index once, in the probe job's parameters, and relays
// the index job's cross-worker postings. The counters match the memory
// backend's, and the bytes out stay under a ceiling set below what the
// coordinator-side map phase streamed.
func TestDistJoinMapsOnWorkers(t *testing.T) {
	items, consumers := distFixture()
	const sigma = 1.0
	RegisterDistJobs(items, consumers, sigma)
	cl := startJoinWorkers(t, 2)
	ctx := context.Background()
	mem, err := Join(ctx, items, consumers, sigma, Options{MR: mapreduce.Config{Mappers: 3, Reducers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Join(ctx, items, consumers, sigma, Options{MR: mapreduce.Config{
		Mappers: 3, Reducers: 3,
		Shuffle: mapreduce.ShuffleConfig{Backend: mapreduce.ShuffleDist},
		Dist:    cl,
	}})
	if err != nil {
		t.Fatal(err)
	}
	sameEdges(t, dist.Edges, mem.Edges)
	got, want := dist.Shuffle, mem.Shuffle
	if got.MapWall != 0 {
		t.Errorf("the join mapped on the coordinator for %v", got.MapWall)
	}
	if got.ShuffleRecords != want.ShuffleRecords || got.LocalRouted != want.LocalRouted || got.CrossRouted != want.CrossRouted {
		t.Errorf("dist shuffled %d records (local %d, cross %d), memory %d (%d, %d)",
			got.ShuffleRecords, got.LocalRouted, got.CrossRouted, want.ShuffleRecords, want.LocalRouted, want.CrossRouted)
	}
	t.Logf("%d shuffled records (local %d, cross %d), %d postings: %d bytes out, %d in",
		got.ShuffleRecords, got.LocalRouted, got.CrossRouted, dist.PostingEntries, got.RemoteBytesOut, got.RemoteBytesIn)
	// Measured 2,745 bytes out here; 5,807 while the coordinator mapped
	// both jobs and streamed every bucket to the workers.
	const ceiling = 3000
	if got.RemoteBytesOut > ceiling {
		t.Errorf("%d bytes out (ceiling %d): the coordinator ships records to the workers again", got.RemoteBytesOut, ceiling)
	}
}

// distFixture is the dist tests' corpus: 50 items and 40 consumers over
// 40 terms.
func distFixture() (items, consumers []vector.Sparse) {
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
	items = make([]vector.Sparse, 50)
	consumers = make([]vector.Sparse, 40)
	for i := range items {
		items[i] = randVec()
	}
	for i := range consumers {
		consumers[i] = randVec()
	}
	return items, consumers
}

// startJoinWorkers starts a cluster of n in-process workers, closed when
// the test ends.
func startJoinWorkers(t *testing.T, n int) *mapreduce.DistCluster {
	t.Helper()
	var wg sync.WaitGroup
	cl, err := mapreduce.StartDistCluster(n, mapreduce.DistClusterOptions{
		Timeout: 30 * time.Second,
		OnListen: func(addr string) {
			for i := 0; i < n; i++ {
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
	t.Cleanup(func() { cl.Close(); wg.Wait() })
	return cl
}
