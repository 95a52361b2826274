package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	socialmatch "repro"
	"repro/internal/graph"
)

func testGraph() *graph.Bipartite {
	g := graph.NewBipartite(3, 2)
	g.SetCapacity(g.ItemID(0), 1)
	g.SetCapacity(g.ItemID(1), 1)
	g.SetCapacity(g.ItemID(2), 1)
	g.SetCapacity(g.ConsumerID(0), 2)
	g.SetCapacity(g.ConsumerID(1), 1)
	g.AddEdge(g.ItemID(0), g.ConsumerID(0), 1.5)
	g.AddEdge(g.ItemID(1), g.ConsumerID(0), 0.5)
	g.AddEdge(g.ItemID(2), g.ConsumerID(1), 2.0)
	return g
}

func TestCompareAllRunsEveryAlgorithm(t *testing.T) {
	// compareAll must complete without error on a well-formed graph,
	// both with and without the exact oracle.
	if err := compareAll(io.Discard, testGraph(), 1, 1, false, socialmatch.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := compareAll(io.Discard, testGraph(), 1, 1, true, socialmatch.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestCompareAllOnSpillBackend(t *testing.T) {
	err := compareAll(io.Discard, testGraph(), 1, 1, false, socialmatch.Options{
		Shuffle:             socialmatch.ShuffleSpill,
		ShuffleMemoryBudget: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCompareAllRefusesNaNEps: -eps NaN parses as a float, and used to
// reach the stack algorithms — stackseq then pushed every live edge on
// each of its 2^20 passes, its NaN threshold never covering one. It is an
// error now.
func TestCompareAllRefusesNaNEps(t *testing.T) {
	err := compareAll(io.Discard, testGraph(), math.NaN(), 1, false, socialmatch.Options{})
	if err == nil || !strings.Contains(err.Error(), "eps") {
		t.Fatalf("compareAll with eps NaN: err = %v, want a refusal naming eps", err)
	}
}

// TestLoadGraphRefusesBadSigma: -sigma NaN and -sigma -1 used to filter
// nothing and match the whole graph, and +Inf dropped every edge.
func TestLoadGraphRefusesBadSigma(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	var b strings.Builder
	if err := graph.Write(&b, testGraph()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sigma := range []float64{math.NaN(), -1, math.Inf(1)} {
		if _, err := loadGraph(path, sigma); err == nil || !strings.Contains(err.Error(), "-sigma") {
			t.Errorf("sigma %v: err = %v, want a refusal naming -sigma", sigma, err)
		}
	}
	g, err := loadGraph(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("sigma 1 kept %d edges, want 2", g.NumEdges())
	}
}
