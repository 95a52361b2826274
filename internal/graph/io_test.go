package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g := RandomBipartite(RandomConfig{
		NumItems: 7, NumConsumers: 5, EdgeProb: 0.4,
		MaxWeight: 2, MaxCapacity: 3, Seed: 7,
	})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumItems() != g.NumItems() || back.NumConsumers() != g.NumConsumers() {
		t.Fatal("part sizes changed in round trip")
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d -> %d", g.NumEdges(), back.NumEdges())
	}
	for i := range g.Edges() {
		a, b := g.Edge(i), back.Edge(i)
		if a.Item != b.Item || a.Consumer != b.Consumer {
			t.Fatalf("edge %d endpoints changed: %v -> %v", i, a, b)
		}
		if diff := a.Weight - b.Weight; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("edge %d weight changed: %v -> %v", i, a.Weight, b.Weight)
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		if g.Capacity(NodeID(v)) != back.Capacity(NodeID(v)) {
			t.Fatalf("capacity of %d changed", v)
		}
	}
}

func TestReadCommentsAndBlanks(t *testing.T) {
	in := `
# a comment
p 2 1

c 0 3
# another
e 0 0 0.5
e 1 0 1.5
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.Capacity(0) != 3 {
		t.Errorf("parsed wrong: edges=%d cap0=%v", g.NumEdges(), g.Capacity(0))
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"missing p":        "e 0 0 1\n",
		"duplicate p":      "p 1 1\np 1 1\n",
		"bad p arity":      "p 1\n",
		"bad p values":     "p x y\n",
		"negative p":       "p -1 2\n",
		"c before p":       "c 0 1\n",
		"bad c arity":      "p 1 1\nc 0\n",
		"bad c values":     "p 1 1\nc a b\n",
		"c node range":     "p 1 1\nc 5 1\n",
		"c negative":       "p 1 1\nc 0 -2\n",
		"bad e arity":      "p 1 1\ne 0 0\n",
		"bad e values":     "p 1 1\ne a b c\n",
		"e item range":     "p 1 1\ne 3 0 1\n",
		"e consumer range": "p 1 1\ne 0 3 1\n",
		"e zero weight":    "p 1 1\ne 0 0 0\n",
		"unknown record":   "p 1 1\nq 1 2 3\n",
		"empty input":      "",
		"only comments":    "# nothing\n",
		"e before p":       "e 0 0 1\np 1 1\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

// TestReadRefusesNonFinite: NaN and infinite weights and capacities, and
// capacities above MaxCapacity, all parse as floats; Read must refuse
// each with a line-numbered error (they used to reach AddEdge or
// SetCapacity and panic, or become a negative int capacity).
func TestReadRefusesNonFinite(t *testing.T) {
	for _, line := range []string{
		"e 0 0 NaN", "e 0 0 nan", "e 0 0 +Inf", "e 0 0 Inf", "e 0 0 -Inf",
		"c 0 NaN", "c 0 Inf", "c 0 +Inf", "c 0 -Inf", "c 0 1e19", "c 0 2147483648",
	} {
		_, err := Read(strings.NewReader("p 1 1\n" + line + "\n"))
		if err == nil || !strings.HasPrefix(err.Error(), "graph: line 2: ") {
			t.Errorf("%q: error %v, want one for line 2", line, err)
		}
	}
	// NodeID is an int32: the parts may not hold more nodes than that.
	if _, err := Read(strings.NewReader("p 2147483647 1\n")); err == nil {
		t.Error("2^31 nodes accepted")
	}
}

func TestWriteFormatStable(t *testing.T) {
	g := NewBipartite(1, 1)
	g.SetCapacity(0, 2)
	g.SetCapacity(1, 1)
	g.AddEdge(0, 1, 0.25)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	want := "p 1 1\nc 0 2\nc 1 1\ne 0 0 0.25\n"
	if buf.String() != want {
		t.Errorf("Write output:\n%q\nwant:\n%q", buf.String(), want)
	}
}
