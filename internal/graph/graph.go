// Package graph provides the weighted bipartite graph model used by the
// social-content-matching algorithms: items T on one side, consumers C on
// the other, weighted edges between them, and integer node capacities
// b(v) (Problem 1 of the paper).
//
// Node identifiers are dense int32 indexes. Items occupy [0, NumItems)
// and consumers occupy [NumItems, NumItems+NumConsumers); the Side and
// index helpers convert between the global id space and per-side indexes.
// The algorithms themselves work on any undirected graph, but the
// bipartite structure is what the application scenarios produce and what
// the dataset generators emit.
package graph

import (
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a node in the bipartite graph. Item nodes come first,
// consumer nodes after them.
type NodeID int32

// Side distinguishes the two parts of the bipartite graph.
type Side int8

const (
	// ItemSide marks item (content) nodes.
	ItemSide Side = iota
	// ConsumerSide marks consumer (user) nodes.
	ConsumerSide
)

// String returns "item" or "consumer".
func (s Side) String() string {
	if s == ItemSide {
		return "item"
	}
	return "consumer"
}

// Edge is a weighted undirected edge between an item and a consumer.
// Item is always the item-side endpoint and Consumer the consumer-side
// endpoint in a bipartite graph.
type Edge struct {
	Item     NodeID
	Consumer NodeID
	Weight   float64
}

// Bipartite is a weighted bipartite graph with node capacities. The zero
// value is unusable; construct with NewBipartite.
type Bipartite struct {
	numItems     int
	numConsumers int
	edges        []Edge
	caps         []float64 // indexed by NodeID, length numItems+numConsumers
}

// NewBipartite creates an empty bipartite graph with the given part
// sizes. All capacities start at zero; set them with SetCapacity or
// SetAllCapacities before matching. It panics on a negative part size
// or on sizes that sum past math.MaxInt32, the last int32 node id.
func NewBipartite(numItems, numConsumers int) *Bipartite {
	if numItems < 0 || numConsumers < 0 {
		panic(fmt.Sprintf("graph: negative part size (%d, %d)", numItems, numConsumers))
	}
	if numItems > math.MaxInt32-numConsumers {
		panic(fmt.Sprintf("graph: %d items and %d consumers overflow int32 node ids", numItems, numConsumers))
	}
	return &Bipartite{
		numItems:     numItems,
		numConsumers: numConsumers,
		caps:         make([]float64, numItems+numConsumers),
	}
}

// NumItems returns |T|.
func (g *Bipartite) NumItems() int { return g.numItems }

// NumConsumers returns |C|.
func (g *Bipartite) NumConsumers() int { return g.numConsumers }

// NumNodes returns |T| + |C|.
func (g *Bipartite) NumNodes() int { return g.numItems + g.numConsumers }

// NumEdges returns |E|.
func (g *Bipartite) NumEdges() int { return len(g.edges) }

// ItemID converts an item index in [0, NumItems) to its NodeID.
func (g *Bipartite) ItemID(i int) NodeID {
	if i < 0 || i >= g.numItems {
		panic(fmt.Sprintf("graph: item index %d out of range [0,%d)", i, g.numItems))
	}
	return NodeID(i)
}

// ConsumerID converts a consumer index in [0, NumConsumers) to its NodeID.
func (g *Bipartite) ConsumerID(j int) NodeID {
	if j < 0 || j >= g.numConsumers {
		panic(fmt.Sprintf("graph: consumer index %d out of range [0,%d)", j, g.numConsumers))
	}
	return NodeID(g.numItems + j)
}

// SideOf reports which part a node belongs to.
func (g *Bipartite) SideOf(v NodeID) Side {
	if int(v) < g.numItems {
		return ItemSide
	}
	return ConsumerSide
}

// ValidNode reports whether v is a node of this graph.
func (g *Bipartite) ValidNode(v NodeID) bool {
	return v >= 0 && int(v) < g.NumNodes()
}

// AddEdge appends the edge (item, consumer, weight). It panics on ids
// from the wrong side, out-of-range ids, or non-positive weights, all of
// which indicate programming errors in callers (the paper assumes
// strictly positive weights).
func (g *Bipartite) AddEdge(item, consumer NodeID, weight float64) {
	if !g.ValidNode(item) || g.SideOf(item) != ItemSide {
		panic(fmt.Sprintf("graph: %d is not an item node", item))
	}
	if !g.ValidNode(consumer) || g.SideOf(consumer) != ConsumerSide {
		panic(fmt.Sprintf("graph: %d is not a consumer node", consumer))
	}
	if weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		panic(fmt.Sprintf("graph: invalid edge weight %v", weight))
	}
	g.edges = append(g.edges, Edge{Item: item, Consumer: consumer, Weight: weight})
}

// Grow makes room for n more edges, so the next n AddEdge calls do not
// reallocate.
func (g *Bipartite) Grow(n int) { g.edges = slices.Grow(g.edges, n) }

// Edge returns the i-th edge.
func (g *Bipartite) Edge(i int) Edge { return g.edges[i] }

// Edges returns the backing edge slice. Callers must not modify it.
func (g *Bipartite) Edges() []Edge { return g.edges }

// MaxCapacity is the largest capacity a node may have, so that
// IntCapacity's ⌈b(v)⌉ is an int on every platform: Go leaves the result
// of an out-of-range float-to-int conversion to the implementation.
const MaxCapacity = math.MaxInt32

// SetCapacity sets b(v). It panics unless 0 ≤ b ≤ MaxCapacity.
func (g *Bipartite) SetCapacity(v NodeID, b float64) {
	if !g.ValidNode(v) {
		panic(fmt.Sprintf("graph: node %d out of range", v))
	}
	if !validCapacity(b) {
		panic(fmt.Sprintf("graph: invalid capacity %v", b))
	}
	g.caps[v] = b
}

// validCapacity reports whether 0 ≤ b ≤ MaxCapacity, which NaN is not.
func validCapacity(b float64) bool { return b >= 0 && b <= MaxCapacity }

// Capacity returns b(v).
func (g *Bipartite) Capacity(v NodeID) float64 { return g.caps[v] }

// IntCapacity returns ⌈b(v)⌉ as an int, the integral capacity used when a
// matching requires whole edges.
func (g *Bipartite) IntCapacity(v NodeID) int {
	return int(math.Ceil(g.caps[v]))
}

// SetAllCapacities assigns the same capacity to every node of the given
// side.
func (g *Bipartite) SetAllCapacities(side Side, b float64) {
	for v := 0; v < g.NumNodes(); v++ {
		if g.SideOf(NodeID(v)) == side {
			g.SetCapacity(NodeID(v), b)
		}
	}
}

// TotalCapacity returns the sum of b(v) over the given side. The paper
// calls the consumer-side total B, the distribution bandwidth.
func (g *Bipartite) TotalCapacity(side Side) float64 {
	var sum float64
	for v := 0; v < g.NumNodes(); v++ {
		if g.SideOf(NodeID(v)) == side {
			sum += g.caps[v]
		}
	}
	return sum
}

// Other returns the endpoint of edge e opposite to v.
func (e Edge) Other(v NodeID) NodeID {
	if e.Item == v {
		return e.Consumer
	}
	return e.Item
}

// TotalWeight returns the sum of all edge weights.
func (g *Bipartite) TotalWeight() float64 {
	var sum float64
	for _, e := range g.edges {
		sum += e.Weight
	}
	return sum
}

// WeightRange returns the minimum and maximum edge weight. It returns
// (0, 0) for an edgeless graph. StackMR's round bound depends on the
// ratio wmax/wmin.
func (g *Bipartite) WeightRange() (wmin, wmax float64) {
	if len(g.edges) == 0 {
		return 0, 0
	}
	wmin, wmax = g.edges[0].Weight, g.edges[0].Weight
	for _, e := range g.edges[1:] {
		if e.Weight < wmin {
			wmin = e.Weight
		}
		if e.Weight > wmax {
			wmax = e.Weight
		}
	}
	return wmin, wmax
}

// FilterEdges returns a new graph with the same nodes and capacities but
// only the edges with weight ≥ sigma. This is how the experiments sweep
// the similarity threshold.
func (g *Bipartite) FilterEdges(sigma float64) *Bipartite {
	out := NewBipartite(g.numItems, g.numConsumers)
	copy(out.caps, g.caps)
	for _, e := range g.edges {
		if e.Weight >= sigma {
			out.edges = append(out.edges, e)
		}
	}
	return out
}

// SortEdgesByWeightDesc returns the edge indexes sorted by decreasing
// weight, with deterministic tie-breaking on (item, consumer) and then on
// the index, so duplicate edges keep their insertion order. The
// centralized greedy algorithm processes edges in this order.
//
// It is two stable radix sorts (radixSort) of (key, index) pairs. The
// first sorts every edge on ^Float64bits(w): weights are positive and
// finite, so ascending key is descending weight, and equal weights come
// out in index order. The second sorts each run of equal weights on
// item<<32 | consumer, written over the run's own slice of the key
// array; being stable, it keeps duplicate edges in index order.
func (g *Bipartite) SortEdgesByWeightDesc() []int32 {
	n := len(g.edges)
	keys, keys2 := make([]uint64, n), make([]uint64, n)
	idx, idx2 := make([]int32, n), make([]int32, n)
	counts := new([8][256]int32)
	for i, e := range g.edges {
		k := ^math.Float64bits(e.Weight)
		keys[i], idx[i] = k, int32(i)
		countBytes(counts, k)
	}
	if radixSort(keys, keys2, idx, idx2, counts) {
		keys, keys2, idx, idx2 = keys2, keys, idx2, idx
	}
	g.sortTies(keys, keys2, idx, idx2, counts)
	return idx
}

// sortTies sorts each run of equal keys, whose edge indexes idx holds in
// ascending order, by (item, consumer): it writes the key
// item<<32 | consumer over the run's own keys and sorts them with
// radixSort, which keeps duplicate edges in index order. keys2, idx2 and
// counts are radixSort's scratch.
func (g *Bipartite) sortTies(keys, keys2 []uint64, idx, idx2 []int32, counts *[8][256]int32) {
	n := len(keys)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && keys[hi] == keys[lo] {
			hi++
		}
		if hi-lo > 1 {
			// The run's indexes ascend, so its edges are gathered in
			// address order; counting in a second loop, over keys already
			// in cache, leaves this one free to overlap its cache misses.
			for i, ei := range idx[lo:hi] {
				e := &g.edges[ei]
				keys[lo+i] = uint64(uint32(e.Item))<<32 | uint64(uint32(e.Consumer))
			}
			if hi-lo >= radixCutoff {
				*counts = [8][256]int32{}
				for _, k := range keys[lo:hi] {
					countBytes(counts, k)
				}
			}
			if radixSort(keys[lo:hi], keys2[lo:hi], idx[lo:hi], idx2[lo:hi], counts) {
				copy(idx[lo:hi], idx2[lo:hi])
			}
		}
		lo = hi
	}
}

// radixCutoff is the length below which radixSort sorts by insertion.
const radixCutoff = 32

// countBytes adds key k to the byte histograms radixSort reads.
func countBytes(counts *[8][256]int32, k uint64) {
	for p := range counts {
		counts[p][byte(k>>(8*p))]++
	}
}

// radixSort sorts keys ascending, carrying idx along, and is stable. It
// is an LSD radix sort, one byte per pass, that skips a byte every key
// shares; keys2 and idx2 are its scratch, as long as keys. It reads
// counts[p][d], the number of keys whose byte p is d, as countBytes left
// it, except below radixCutoff keys, where it sorts by insertion. It
// reports whether the sorted pairs ended up in keys2 and idx2.
func radixSort(keys, keys2 []uint64, idx, idx2 []int32, counts *[8][256]int32) (swapped bool) {
	n := len(keys)
	if n < radixCutoff {
		for i := 1; i < n; i++ {
			k, x := keys[i], idx[i]
			j := i
			for ; j > 0 && keys[j-1] > k; j-- {
				keys[j], idx[j] = keys[j-1], idx[j-1]
			}
			keys[j], idx[j] = k, x
		}
		return false
	}
	for p := range counts {
		c, shift := &counts[p], 8*p
		if int(c[byte(keys[0]>>shift)]) == n {
			continue
		}
		scatter(keys2, idx2, keys, idx, c, uint(shift))
		keys, keys2 = keys2, keys
		idx, idx2 = idx2, idx
		swapped = !swapped
	}
	return swapped
}

// scatter is one radixSort pass: it moves each pair (keys[i], idx[i]) to
// the next slot of its byte at shift in dst and dstIdx, in input order,
// so the pass is stable; c is that byte's histogram. It is a function of
// its own, with its slots in a local array and the shift masked, so that
// the loop's operands fit in registers and it needs no nil or shift
// check.
func scatter(dst []uint64, dstIdx []int32, keys []uint64, idx []int32, c *[256]int32, shift uint) {
	var next [256]int32
	var slot int32
	for d, cnt := range c {
		next[d], slot = slot, slot+cnt
	}
	n := len(keys)
	dst, dstIdx, idx = dst[:n], dstIdx[:n], idx[:n]
	for i, k := range keys {
		d := byte(k >> (shift & 63))
		dst[next[d]], dstIdx[next[d]] = k, idx[i]
		next[d]++
	}
}

// Clone returns a deep copy of the graph.
func (g *Bipartite) Clone() *Bipartite {
	out := NewBipartite(g.numItems, g.numConsumers)
	out.edges = append([]Edge(nil), g.edges...)
	copy(out.caps, g.caps)
	return out
}

// Validate checks structural invariants: endpoints on the correct sides,
// positive finite weights, capacities in [0, MaxCapacity]. It returns the
// first violation found.
func (g *Bipartite) Validate() error {
	for i, e := range g.edges {
		if !g.ValidNode(e.Item) || g.SideOf(e.Item) != ItemSide {
			return fmt.Errorf("graph: edge %d has bad item endpoint %d", i, e.Item)
		}
		if !g.ValidNode(e.Consumer) || g.SideOf(e.Consumer) != ConsumerSide {
			return fmt.Errorf("graph: edge %d has bad consumer endpoint %d", i, e.Consumer)
		}
		if e.Weight <= 0 || math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) {
			return fmt.Errorf("graph: edge %d has invalid weight %v", i, e.Weight)
		}
	}
	for v, b := range g.caps {
		if !validCapacity(b) {
			return fmt.Errorf("graph: node %d has invalid capacity %v", v, b)
		}
	}
	return nil
}
