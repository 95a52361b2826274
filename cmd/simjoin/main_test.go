package main

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/simjoin"
)

// TestPrintJoinCandidatesLine: the report's candidates line carries
// Result.Candidates and its share of all pairs, and that count is the
// probe job's distinct pairs — at least the edges that survive, and the
// same whatever the reducer count.
func TestPrintJoinCandidatesLine(t *testing.T) {
	c, err := dataset.ByName("flickr-small", 0.05, 1)
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
