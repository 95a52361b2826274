package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// TestRunWritesGraphFile pins the happy path of the checked output
// helper: run writes a loadable graph and exits clean.
func TestRunWritesGraphFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	err := run([]string{"-dataset", "synthetic", "-items", "50", "-consumers", "10", "-o", path})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumItems() != 50 || g.NumEdges() == 0 {
		t.Fatalf("round trip lost the graph: |T|=%d |E|=%d", g.NumItems(), g.NumEdges())
	}
}

// TestRunFailingOutputExitsNonzero pins the satellite bugfix end to
// end: writing the graph to a full device must surface as an error (a
// nonzero exit from main), never a silent success with a truncated
// file. Before the cliio rework this very invocation exited 0.
func TestRunFailingOutputExitsNonzero(t *testing.T) {
	if _, err := os.OpenFile("/dev/full", os.O_WRONLY, 0); err != nil {
		t.Skip("/dev/full not available")
	}
	err := run([]string{"-dataset", "synthetic", "-items", "50", "-consumers", "10", "-o", "/dev/full"})
	if err == nil {
		t.Fatal("writing to a full device reported success")
	}
}

func TestBuildKnownDatasets(t *testing.T) {
	for _, name := range []string{"flickr-small", "flickr-large", "yahoo-answers"} {
		g, err := build(name, 0.5, 1, 0.03, 0, 0, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumEdges() == 0 {
			t.Errorf("%s: no edges", name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Capacities applied.
		anyCap := false
		for v := 0; v < g.NumNodes(); v++ {
			if g.Capacity(graph.NodeID(v)) > 0 {
				anyCap = true
				break
			}
		}
		if !anyCap {
			t.Errorf("%s: no capacities set", name)
		}
	}
}

func TestBuildSynthetic(t *testing.T) {
	g, err := build("synthetic", 0, 1, 1, 500, 100, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumItems() != 500 || g.NumConsumers() != 100 {
		t.Errorf("sizes %d %d", g.NumItems(), g.NumConsumers())
	}
}

func TestBuildUnknownDataset(t *testing.T) {
	if _, err := build("nope", 0, 1, 1, 0, 0, 0, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestSortEdges(t *testing.T) {
	g, err := build("synthetic", 0, 1, 1, 200, 40, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	sorted := sortEdges(g)
	if sorted.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d -> %d", g.NumEdges(), sorted.NumEdges())
	}
	for i := 1; i < sorted.NumEdges(); i++ {
		if sorted.Edge(i).Weight > sorted.Edge(i-1).Weight {
			t.Fatal("edges not in descending weight order")
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		if sorted.Capacity(graph.NodeID(v)) != g.Capacity(graph.NodeID(v)) {
			t.Fatal("capacities lost in sort")
		}
	}
}

// TestSortGolden pins the bytes `datagen -sort` writes: edges by
// decreasing weight, ties by (item, consumer). flickr-small's integer
// weights tie heavily, so its file pins the tie-break; the synthetic
// graph's distinct weights pin the weight order. If it fails, the file
// -sort writes moved — do not edit the literals.
func TestSortGolden(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-dataset", "flickr-small", "-scale", "0.1"}, "70688f5b55da3bba45bba31a2a88bc091bda3c1878d744847d622455f8860278"},
		{[]string{"-dataset", "synthetic", "-items", "2000", "-consumers", "300", "-seed", "9"}, "892977f72d74e8c6a62394e33ad0fe312685c1d08bdd00f4b00deecb5048d2fa"},
	} {
		path := filepath.Join(t.TempDir(), "g.txt")
		if err := run(append(tc.args, "-sort", "-o", path)); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%v -sort: sha256 %s, want %s", tc.args, got, tc.want)
		}
	}
}

// TestRunRefusesOutOfRangeFlags: each of these used to panic, run out of
// memory, or quietly write some other graph than the one asked for.
func TestRunRefusesOutOfRangeFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-dataset", "synthetic", "-consumers", "0", "-items", "5"},
		{"-dataset", "synthetic", "-items", "-1"},
		{"-dataset", "synthetic", "-items", "0"},
		{"-dataset", "synthetic", "-items", "3000000000"},
		{"-dataset", "synthetic", "-items", "2147483000", "-consumers", "1000"},
		{"-dataset", "synthetic", "-degree", "0"},
		{"-dataset", "flickr-small", "-sigma", "NaN"},
		{"-dataset", "flickr-small", "-sigma", "-1"},
		{"-dataset", "flickr-small", "-sigma", "+Inf"},
		{"-dataset", "flickr-small", "-scale", "0"},
		{"-dataset", "flickr-small", "-scale", "-0.5"},
		{"-dataset", "flickr-small", "-scale", "5"},
		{"-dataset", "yahoo-answers", "-scale", "NaN"},
	} {
		path := filepath.Join(t.TempDir(), "g.txt")
		if err := run(append(args, "-o", path)); err == nil {
			t.Errorf("%v: accepted", args)
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%v: wrote %s", args, path)
		}
	}
}
