package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The edge-list text format is a small, line-oriented interchange format
// used by the cmd tools:
//
//	# comments and blank lines are ignored
//	p <numItems> <numConsumers>         (exactly once, first)
//	c <nodeID> <capacity>               (zero or more)
//	e <itemIndex> <consumerIndex> <weight>
//
// Item and consumer indexes are per-side (0-based); node ids in capacity
// lines are global NodeIDs.

// Write serializes g in the edge-list text format.
func Write(w io.Writer, g *Bipartite) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p %d %d\n", g.NumItems(), g.NumConsumers())
	for v := 0; v < g.NumNodes(); v++ {
		if b := g.Capacity(NodeID(v)); b != 0 {
			fmt.Fprintf(bw, "c %d %g\n", v, b)
		}
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "e %d %d %g\n", int(e.Item), int(e.Consumer)-g.NumItems(), e.Weight)
	}
	return bw.Flush()
}

// Read parses a graph in the edge-list text format.
func Read(r io.Reader) (*Bipartite, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var g *Bipartite
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "p":
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate p line", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'p <items> <consumers>'", lineNo)
			}
			nT, err1 := strconv.Atoi(fields[1])
			nC, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || nT < 0 || nC < 0 || nT > math.MaxInt32-nC {
				return nil, fmt.Errorf("graph: line %d: bad part sizes", lineNo)
			}
			g = NewBipartite(nT, nC)
		case "c":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: c before p", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: want 'c <node> <cap>'", lineNo)
			}
			v, err1 := strconv.Atoi(fields[1])
			b, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph: line %d: bad capacity line", lineNo)
			}
			if v < 0 || v >= g.NumNodes() {
				return nil, fmt.Errorf("graph: line %d: node %d out of range", lineNo, v)
			}
			if !validCapacity(b) {
				return nil, fmt.Errorf("graph: line %d: capacity %s is not in [0, %d]", lineNo, fields[2], MaxCapacity)
			}
			g.SetCapacity(NodeID(v), b)
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: e before p", lineNo)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: want 'e <item> <consumer> <weight>'", lineNo)
			}
			ti, err1 := strconv.Atoi(fields[1])
			cj, err2 := strconv.Atoi(fields[2])
			w, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("graph: line %d: bad edge line", lineNo)
			}
			if ti < 0 || ti >= g.NumItems() {
				return nil, fmt.Errorf("graph: line %d: item %d out of range", lineNo, ti)
			}
			if cj < 0 || cj >= g.NumConsumers() {
				return nil, fmt.Errorf("graph: line %d: consumer %d out of range", lineNo, cj)
			}
			if !(w > 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("graph: line %d: weight %s is not positive and finite", lineNo, fields[3])
			}
			g.AddEdge(g.ItemID(ti), g.ConsumerID(cj), w)
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("graph: empty input (missing p line)")
	}
	return g, nil
}
