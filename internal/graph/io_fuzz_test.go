package graph

import (
	"bufio"
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzRead: Read returns an error or a graph that passes Validate and
// comes back unchanged through Write and Read; it never panics. The
// checked-in corpus (testdata/fuzz/FuzzRead) holds NaN and infinite
// weights and capacities, a capacity of 1e19, truncated p, c and e lines
// and ids out of range.
func FuzzRead(f *testing.F) {
	f.Add([]byte("p 2 1\nc 0 3\nc 2 1.5\ne 0 0 0.5\ne 1 0 1e-300\ne 1 0 1e-300\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaredNodes(data) > 1<<16 {
			// Read allocates a capacity for every declared node up
			// front; a few digits must not spend the budget on that.
			t.Skip("declares more than 2^16 nodes")
		}
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Read returned an invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reading Write's output: %v\n%s", err, buf.Bytes())
		}
		if back.NumItems() != g.NumItems() || back.NumConsumers() != g.NumConsumers() ||
			!slices.Equal(back.edges, g.edges) || !slices.Equal(back.caps, g.caps) {
			t.Fatalf("Write/Read round trip changed the graph:\n%s", buf.Bytes())
		}
	})
}

// declaredNodes is the largest node count a p line of data declares.
func declaredNodes(data []byte) int {
	most := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == "p" {
			nT, _ := strconv.Atoi(f[1])
			nC, _ := strconv.Atoi(f[2])
			most = max(most, nT+nC)
		}
	}
	return most
}
