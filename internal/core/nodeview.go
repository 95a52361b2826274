package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/mapreduce"
)

// The MapReduce matching algorithms use a "node-based" representation of
// the graph (paper Section 5.3): the input and output of every job is a
// consistent view of the graph as adjacency lists, one record per live
// node. Mappers make decisions locally to a node and emit the decisions
// along the node's incident edges; reducers unify the diverging views of
// each edge at its two endpoints.
//
// Every job over that view is a state job (mapreduce.RunStateDS, through
// runNodeJob): the node's record stays in its partition and its reduce is
// handed it there, so only the decisions cross the shuffle — as edgeMsg
// scalars for GreedyMR and the maximal-matching stages, as an edge id and
// a float (dualMsg) for the stack algorithms' dual update and filter.

// half is one endpoint's view of an incident edge.
type half struct {
	// ID is the edge index in the underlying graph.
	ID int32
	// Other is the opposite endpoint.
	Other graph.NodeID
	// W is the edge weight.
	W float64
}

// nodeState is the per-node record carried between rounds.
type nodeState struct {
	// B is the node's residual capacity.
	B int
	// Adj lists the live incident edges.
	Adj []half
}

// edgeMsg is what a node-view job tells the other endpoint of an edge —
// GreedyMR's proposal, the maximal-matching stages' mark, selection,
// drop and alive bits: the edge id shifted left once, the low bit the
// flag. A scalar, so that a shuffled pair is 8 pointer-free bytes —
// written by Emit, copied by the group gather, moved again by the group
// sort, 12.5 M times on the dense benchmark job — and the codec's int32
// column encodes it on spill and dist with no per-record call
// (TestShuffledMessageSizes keeps a field from coming back). The shift
// leaves edge ids 30 bits, which nodeDataset checks.
type edgeMsg int32

func edgeFlag(edge int32, flag bool) edgeMsg {
	m := edgeMsg(edge) << 1
	if flag {
		m |= 1
	}
	return m
}

func (m edgeMsg) edge() int32 { return int32(m >> 1) }
func (m edgeMsg) flag() bool  { return m&1 != 0 }

// Neighbor messages are intersected with a node's own adjacency through
// an edge-indexed mark table: one byte per edge of the graph, zero
// except while a reduce call has its node's messages stamped in. Every
// reduce that receives edgeMsgs works this way.
const (
	markSeen = 1 << iota // the edge is live: its other endpoint sent a message
	markFlag             // ... and the message's flag is set (proposed, marked, selected, dropped, alive)
)

// stamp records m in a mark table.
func (m edgeMsg) stamp(marks []uint8) { marks[m.edge()] |= markSeen | uint8(m&1)*markFlag }

// edgeMarkPool lends reduce tasks their mark tables (*[]uint8, all
// zero between calls). At most one table per concurrently running
// reduce task is live; a table the collector drops from the pool costs
// |E| bytes to replace.
var edgeMarkPool = sync.Pool{New: func() any { return new([]uint8) }}

// edgeMarks is a borrowed table's view over numEdges edge ids, grown on
// first use. The borrower wipes every stamp it set before the table
// goes back.
func edgeMarks(table *[]uint8, numEdges int) []uint8 {
	if len(*table) < numEdges {
		*table = make([]uint8, numEdges)
	}
	return *table
}

// runNodeJob runs one node-view state job under the driver and counts it
// as a round. params encodes what the job's map and reduce close over
// (nil: nothing); it is called on the dist backend only, where the
// workers' registered factory rebuilds the same closures from it
// (RegisterDistJobs). An output the driver refuses is released.
func runNodeJob[S, V, O any](
	ctx context.Context,
	driver *mapreduce.Driver,
	name string,
	params func() []byte,
	input *mapreduce.Dataset[graph.NodeID, S],
	mapFn mapreduce.MapFunc[graph.NodeID, S, graph.NodeID, V],
	reduceFn mapreduce.StateReduceFunc[graph.NodeID, S, V, graph.NodeID, O],
) (*mapreduce.Dataset[graph.NodeID, O], error) {
	cfg := driver.Config(name)
	if params != nil && cfg.Shuffle.Backend == mapreduce.ShuffleDist {
		cfg.DistParams = params()
	}
	out, stats, err := mapreduce.RunStateDS(ctx, cfg, input, mapFn, reduceFn)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", name, err)
	}
	if err := driver.Observe(stats); err != nil {
		out.Recycle()
		return nil, err
	}
	return out, nil
}

// nodeDataset builds the round-0 node view of g straight into the
// aligned, key-ordered partitions the round loops start from (see
// nodeView.build), all partitions at once (mapreduce.BuildDataset).
func nodeDataset(g *graph.Bipartite, parts int, byWeight bool) (*mapreduce.Dataset[graph.NodeID, nodeState], error) {
	view, err := newNodeView(g, byWeight)
	if err != nil {
		return nil, err
	}
	return mapreduce.BuildDataset(parts, view.build)
}

// nodeView is what the round-0 node view of g is built from: which
// nodes have a positive rounded capacity b(v), read when the view is
// made, and every node's live degree, counted by the first partition
// built. Serial are only these two — one pass over the nodes and one
// sequential edge scan; every partition then scans the edge array once
// more for its own nodes' halves.
type nodeView struct {
	g        *graph.Bipartite
	byWeight bool
	live     nodeSet // b(v) > 0
	// key is what a dist worker's view must agree on before it builds
	// (greedyViewBuilder).
	key     viewKey
	degOnce sync.Once
	deg     []int32 // live degree: edges whose both ends have capacity
	// next is every node's write cursor into its partition's halves
	// while that partition is built. A partition touches only its own
	// nodes' cursors, so partitions build concurrently, and each build
	// lays them out afresh, so a partition built again comes out equal.
	next []int32
}

// viewKey identifies the graph a view was made of: its node and edge
// counts and an FNV-1a hash of its nodes' rounded capacities, one 64-bit
// word each.
type viewKey struct {
	nodes, edges int
	caps         uint64
}

func (k viewKey) String() string {
	return fmt.Sprintf("%d nodes, %d edges, capacity hash %016x", k.nodes, k.edges, k.caps)
}

func newNodeView(g *graph.Bipartite, byWeight bool) (*nodeView, error) {
	if g.NumEdges() > math.MaxInt32>>1 {
		return nil, fmt.Errorf("%d edges, an edge message holds 30-bit edge ids", g.NumEdges())
	}
	live := newNodeSet(g.NumNodes())
	hash := uint64(14695981039346656037)
	for v := range g.NumNodes() {
		b := intCap(g, graph.NodeID(v))
		if b > 0 {
			live.add(graph.NodeID(v))
		}
		hash = (hash ^ uint64(b)) * 1099511628211
	}
	return &nodeView{g: g, byWeight: byWeight, live: live, key: viewKey{g.NumNodes(), g.NumEdges(), hash}}, nil
}

// degrees returns the live degrees, counting them on first use.
func (v *nodeView) degrees() []int32 {
	v.degOnce.Do(func() {
		live, edges := v.live, v.g.Edges()
		deg := make([]int32, v.g.NumNodes())
		for i := range edges {
			if e := &edges[i]; live.has(e.Item) && live.has(e.Consumer) {
				deg[e.Item]++
				deg[e.Consumer]++
			}
		}
		v.deg = deg
		v.next = make([]int32, len(deg))
	})
	return v.deg
}

// build is the view's partition callback: one record per owned node with
// positive capacity and at least one incident edge whose other endpoint
// also has positive capacity. It asks owns once per such node, marking
// the partition's nodes in a set and laying out their exact regions of
// one []half in ascending node order, then fills the regions in one
// sequential pass over the edge array — ascending edge index, so every
// adjacency is in incidence order — and cuts one exact []Pair over them:
// all its round-0 records point into, from here on the round loops' to
// rewrite. A node's region is capacity-limited, so compacting it in
// place can never bleed into a neighbor's; with byWeight (GreedyMR) it
// is ordered byWeightThenID once filled, else left in incidence order
// (the stack algorithms sum over it).
func (v *nodeView) build(_ int, owns func(graph.NodeID) bool) []mapreduce.Pair[graph.NodeID, nodeState] {
	deg, next, live, edges := v.degrees(), v.next, v.live, v.g.Edges()
	mine := newNodeSet(len(deg))
	total, count := int32(0), 0
	for u, d := range deg {
		if d > 0 && owns(graph.NodeID(u)) {
			mine.add(graph.NodeID(u))
			next[u] = total
			total += d
			count++
		}
	}
	backing := make([]half, total)
	for i := range edges {
		e := &edges[i]
		if mine.has(e.Item) && live.has(e.Consumer) {
			backing[next[e.Item]] = half{ID: int32(i), Other: e.Consumer, W: e.Weight}
			next[e.Item]++
		}
		if mine.has(e.Consumer) && live.has(e.Item) {
			backing[next[e.Consumer]] = half{ID: int32(i), Other: e.Item, W: e.Weight}
			next[e.Consumer]++
		}
	}
	recs := make([]mapreduce.Pair[graph.NodeID, nodeState], 0, count)
	for u, d := range deg {
		id := graph.NodeID(u)
		if !mine.has(id) {
			continue
		}
		end := next[u] // the region's end once filled
		adj := backing[end-d : end : end]
		if v.byWeight {
			sortByWeightThenID(adj)
		}
		recs = append(recs, mapreduce.P(id, nodeState{B: intCap(v.g, id), Adj: adj}))
	}
	return recs
}

// nodeSet is a set of node ids, one bit each.
type nodeSet []uint64

func newNodeSet(nodes int) nodeSet { return make(nodeSet, (nodes+63)/64) }

func (s nodeSet) add(v graph.NodeID)      { s[v>>6] |= 1 << (v & 63) }
func (s nodeSet) has(v graph.NodeID) bool { return s[v>>6]&(1<<(v&63)) != 0 }

// params encodes the key as the parameters of a dist build of the view
// (greedyViewBuilder).
func (k viewKey) params() []byte {
	buf := binary.AppendUvarint(nil, uint64(k.nodes))
	buf = binary.AppendUvarint(buf, uint64(k.edges))
	return binary.AppendUvarint(buf, k.caps)
}

// decodeViewParams is the worker-side inverse of viewKey.params.
func decodeViewParams(data []byte) (viewKey, error) {
	r := &spillReader{data: data}
	nodes, edges, caps := r.uvarint(), r.uvarint(), r.uvarint()
	if nodes > math.MaxInt32 || edges > math.MaxInt32 {
		r.bad = true
	}
	return viewKey{int(nodes), int(edges), caps}, r.err("node view parameters")
}

// greedyViewBuilder is the worker-side factory of GreedyMR's round-0
// view of g, the dist half of its mapreduce.BuildDS: a view of g, made
// once per build, if the coordinator's graph has g's node count, edge
// count and capacities, and otherwise a refusal naming both.
func greedyViewBuilder(g *graph.Bipartite) func(params []byte) (func(int, func(graph.NodeID) bool) []mapreduce.Pair[graph.NodeID, nodeState], error) {
	return func(params []byte) (func(int, func(graph.NodeID) bool) []mapreduce.Pair[graph.NodeID, nodeState], error) {
		want, err := decodeViewParams(params)
		if err != nil {
			return nil, err
		}
		view, err := newNodeView(g, true)
		if err != nil {
			return nil, err
		}
		if view.key != want {
			return nil, fmt.Errorf("the coordinator's graph has %v, this worker's has %v", want, view.key)
		}
		return view.build, nil
	}
}

// sortByWeightThenID orders adj byWeightThenID: by insertion, with the
// comparison inlined, up to 24 entries — most adjacency lists — and by
// slices.SortFunc above. byWeightThenID is a total order, so both give
// the same order.
func sortByWeightThenID(adj []half) {
	if len(adj) > 24 {
		slices.SortFunc(adj, byWeightThenID)
		return
	}
	for i := 1; i < len(adj); i++ {
		h := adj[i]
		j := i
		for ; j > 0 && (adj[j-1].W < h.W || adj[j-1].W == h.W && adj[j-1].ID > h.ID); j-- {
			adj[j] = adj[j-1]
		}
		adj[j] = h
	}
}

// byWeightThenID orders halves heaviest first, ties by ascending edge
// id: the cLv selection order of GreedyMR (Algorithm 3) and of the
// greedy marking strategy of StackGreedyMR. It is a total order (edge
// ids are unique), so an unstable sort under it is deterministic.
func byWeightThenID(a, b half) int {
	if a.W != b.W {
		if a.W > b.W {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// topByWeight returns the indexes (into adj) of the k first edges under
// byWeightThenID, leaving adj itself in incidence order (the stack
// algorithms fold floating-point sums over it in that order).
func topByWeight(adj []half, k int) []int32 {
	if k <= 0 {
		return nil
	}
	idx := make([]int32, len(adj))
	for i := range adj {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(a, b int32) int { return byWeightThenID(adj[a], adj[b]) })
	if k < len(idx) {
		idx = idx[:k]
	}
	return idx
}
