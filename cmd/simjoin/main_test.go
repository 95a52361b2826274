package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mapreduce"
	"repro/internal/simjoin"
)

func TestCorpusNames(t *testing.T) {
	for _, name := range []string{"flickr-small", "flickr-large", "yahoo-answers"} {
		c, err := corpus(name, 0.03, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.NumItems() == 0 || c.NumConsumers() == 0 {
			t.Errorf("%s: empty corpus", name)
		}
	}
	if _, err := corpus("bogus", 1, 1); err == nil {
		t.Error("unknown corpus accepted")
	}
}

func TestCorpusScaling(t *testing.T) {
	full, err := corpus("flickr-small", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := corpus("flickr-small", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumItems() >= full.NumItems() {
		t.Errorf("scaling did not shrink: %d >= %d", small.NumItems(), full.NumItems())
	}
}

// TestPrintJoinCandidatesLine: the report's candidates line carries
// Result.Candidates and its share of all pairs, and that count is the
// probe job's distinct pairs — at least the edges that survive, and the
// same whatever the reducer count.
func TestPrintJoinCandidatesLine(t *testing.T) {
	c, err := corpus("flickr-small", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	const sigma = 4
	var want int64
	for _, reducers := range []int{1, 3} {
		res, err := simjoin.Join(context.Background(), c.Items, c.Consumers, sigma,
			simjoin.Options{MR: mapreduce.Config{Mappers: 2, Reducers: reducers}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Candidates < int64(len(res.Edges)) || len(res.Edges) == 0 {
			t.Fatalf("%d candidates for %d edges", res.Candidates, len(res.Edges))
		}
		if want == 0 {
			want = res.Candidates
		}
		if res.Candidates != want {
			t.Fatalf("%d candidates with %d reducers, %d with one", res.Candidates, reducers, want)
		}
		var out strings.Builder
		printJoin(&out, c, sigma, res)
		line := fmt.Sprintf("candidates:     %d (%.4f%% of all pairs)\n",
			res.Candidates, 100*float64(res.Candidates)/float64(c.NumItems()*c.NumConsumers()))
		if !strings.Contains(out.String(), line) {
			t.Fatalf("report lacks %q:\n%s", line, out.String())
		}
	}
}
