//go:build !race

package simjoin

import (
	"testing"

	"repro/internal/vector"
)

// candidateList is a probe-map emitter that keeps the candidates of the
// consumer being probed, in a buffer it reuses.
type candidateList struct{ docs []int32 }

func (c *candidateList) Emit(_ int32, doc int32) { c.docs = append(c.docs, doc) }

// countEdges is a verify-reduce emitter that counts what it is given.
type countEdges struct{ n int }

func (c *countEdges) Emit([2]int32, float64) { c.n++ }

// TestAllocGuardProbe: in steady state the probe map and the verify
// reduce allocate nothing — not per candidate (the dedup set is a
// borrowed stamp table, the score a walk over the item's entries against
// a borrowed weight table) and not per call. One pass probes and
// verifies every consumer of the golden corpus, 11 468 candidates. CI
// runs it by name (-run TestAllocGuard); excluded under the race
// detector, which inflates allocation counts.
func TestAllocGuardProbe(t *testing.T) {
	items, consumers := goldenCorpus()
	v := newVerifier(items, consumers, goldenSigma)
	maxW, df := vector.MaxWeights(consumers), vector.DocumentFrequencies(consumers)
	index := make([][]int32, len(v.rankOf))
	for i, d := range items {
		for _, e := range prefixEntries(d, goldenSigma, maxW, df) {
			if r, ok := v.rankOf[e.Term]; ok {
				index[r] = append(index[r], int32(i))
			}
		}
	}
	probe := v.probeMap(index, len(items))
	var cands candidateList
	var edges countEdges
	candidates := 0
	pass := func() {
		candidates, edges.n = 0, 0
		for j := range consumers {
			cands.docs = cands.docs[:0]
			if err := probe(int32(j), struct{}{}, &cands); err != nil {
				t.Fatal(err)
			}
			candidates += len(cands.docs)
			if err := v.verifyReduce(int32(j), cands.docs, &edges); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // warm the pools and the candidate buffer
	if candidates != goldenCandidates || edges.n != goldenEdges {
		t.Fatalf("one pass finds %d candidates, %d edges; the golden join %d, %d", candidates, edges.n, goldenCandidates, goldenEdges)
	}
	if avg := testing.AllocsPerRun(5, pass); avg != 0 {
		t.Errorf("a pass over %d consumers and %d candidates allocates %.0f times, want 0", len(consumers), candidates, avg)
	}
}
