package dataset

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/capacity"
	"repro/internal/graph"
	"repro/internal/vector"
)

// Corpus is a generated dataset before matching: the term vectors of
// items and consumers plus the activity and quality proxies that drive
// capacities.
type Corpus struct {
	// Name identifies the dataset ("flickr-small", ...).
	Name string
	// Items holds one sparse term vector per item (photo tags,
	// question words).
	Items []vector.Sparse
	// Consumers holds one sparse term vector per consumer (the tags or
	// words of everything the user touched).
	Consumers []vector.Sparse
	// Activity holds the per-consumer activity proxy n(u) (photos
	// posted, answers written); consumer capacities are b(u) = α·n(u).
	Activity []float64
	// Favorites holds the per-item favorite counts f(p) for
	// favorites-proportional item capacities; nil means items get the
	// constant capacity B/|T| (the yahoo-answers policy).
	Favorites []float64
}

// NumItems returns |T|.
func (c *Corpus) NumItems() int { return len(c.Items) }

// NumConsumers returns |C|.
func (c *Corpus) NumConsumers() int { return len(c.Consumers) }

// ByName generates the named corpus — flickr-small, flickr-large or
// yahoo-answers — from seed, with both part sizes scaled by scale in
// (0,1] to at least 10 each. The CLIs that take -dataset and -scale
// share it, so they refuse and scale alike.
func ByName(name string, scale float64, seed int64) (*Corpus, error) {
	if err := CheckScale(scale); err != nil {
		return nil, err
	}
	switch name {
	case "flickr-small", "flickr-large":
		cfg := FlickrSmallConfig()
		if name == "flickr-large" {
			cfg = FlickrLargeConfig()
		}
		cfg.Seed = seed
		scaleSizes(&cfg.NumItems, &cfg.NumConsumers, scale)
		return Flickr(name, cfg), nil
	case "yahoo-answers":
		cfg := AnswersScaledConfig()
		cfg.Seed = seed
		scaleSizes(&cfg.NumItems, &cfg.NumConsumers, scale)
		return Answers(name, cfg), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

// CheckScale refuses a -scale outside (0,1], NaN included.
func CheckScale(scale float64) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("-scale %v is not in (0,1]", scale)
	}
	return nil
}

// scaleSizes scales both part sizes by scale in (0,1], to at least 10
// each.
func scaleSizes(items, consumers *int, scale float64) {
	if scale >= 1 {
		return
	}
	*items = max(int(float64(*items)*scale), 10)
	*consumers = max(int(float64(*consumers)*scale), 10)
}

// buildBlock is the number of consumers one BuildGraph task scores.
const buildBlock = 64

// BuildGraph materializes every item-consumer edge with dot-product
// similarity ≥ sigma as a bipartite graph (capacities unset; see
// ApplyCapacities). It scores pairs exactly with an inverted index over
// the items, which is the same join the MapReduce similarity join of
// internal/simjoin computes; experiments use whichever fits, and tests
// cross-check the two.
//
// Consumers are scored in blocks of buildBlock on GOMAXPROCS goroutines,
// each with its own score accumulator. A consumer's score for an item
// sums its terms in term order and each term's postings in item order,
// and its edges follow the items in the order its terms first reached
// them; the blocks' edge lists are appended in consumer order. So the
// edge list, weights included, is the one a serial scan of the consumers
// builds, for any GOMAXPROCS.
func (c *Corpus) BuildGraph(sigma float64) *graph.Bipartite {
	g := graph.NewBipartite(c.NumItems(), c.NumConsumers())
	if sigma <= 0 {
		sigma = 1e-12 // only strictly positive similarities become edges
	}
	idx := newPostings(c.Items)
	blocks := make([][]graph.Edge, (c.NumConsumers()+buildBlock-1)/buildBlock)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(blocks)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &scorer{idx: idx, scores: make([]float64, c.NumItems())}
			for b := int(next.Add(1) - 1); b < len(blocks); b = int(next.Add(1) - 1) {
				blocks[b] = s.edges(g, c.Consumers, b*buildBlock, min((b+1)*buildBlock, c.NumConsumers()), sigma)
			}
		}()
	}
	wg.Wait()
	addEdges(g, blocks)
	return g
}

// scorer scores consumers against the item index, one consumer at a
// time; every BuildGraph goroutine has its own.
type scorer struct {
	idx     *postings
	scores  []float64 // by item; all zero between consumers
	touched []int32   // the items with a score, in first-touch order
}

// edges returns the edges of consumers [from, to) with similarity ≥
// sigma, consumer by consumer.
func (s *scorer) edges(g *graph.Bipartite, consumers []vector.Sparse, from, to int, sigma float64) []graph.Edge {
	// Locals, not fields, in the loops: the compiler keeps them in
	// registers.
	scores, touched := s.scores, s.touched
	row, start, post := s.idx.row, s.idx.start, s.idx.post
	var edges []graph.Edge
	for j := from; j < to; j++ {
		for _, e := range consumers[j].Entries() {
			r, ok := row[e.Term]
			if !ok {
				continue
			}
			for _, p := range post[start[r]:start[r+1]] {
				if scores[p.item] == 0 {
					touched = append(touched, p.item)
				}
				scores[p.item] += e.Weight * p.weight
			}
		}
		for _, i := range touched {
			if scores[i] >= sigma {
				edges = append(edges, graph.Edge{Item: g.ItemID(int(i)), Consumer: g.ConsumerID(j), Weight: scores[i]})
			}
			scores[i] = 0
		}
		touched = touched[:0]
	}
	s.touched = touched
	return edges
}

// addEdges adds the edges of lists to g in order, after growing g's edge
// list once to the exact size.
func addEdges(g *graph.Bipartite, lists [][]graph.Edge) {
	n := 0
	for _, edges := range lists {
		n += len(edges)
	}
	g.Grow(n)
	for _, edges := range lists {
		for _, e := range edges {
			g.AddEdge(e.Item, e.Consumer, e.Weight)
		}
	}
}

// postings is an inverted index over item vectors in CSR form: each
// distinct term has a row, and row r's postings, in item order, are
// post[start[r]:start[r+1]].
type postings struct {
	row   map[vector.TermID]int32
	start []int
	post  []posting
}

type posting struct {
	item   int32
	weight float64
}

// newPostings indexes items in three passes: rows in first-seen term
// order, a count per row, then the fill.
func newPostings(items []vector.Sparse) *postings {
	n := 0
	for _, v := range items {
		n += v.Len()
	}
	idx := &postings{row: make(map[vector.TermID]int32)}
	rows := make([]int32, 0, n) // the row of every item entry, in order
	for _, v := range items {
		for _, e := range v.Entries() {
			r, ok := idx.row[e.Term]
			if !ok {
				r = int32(len(idx.row))
				idx.row[e.Term] = r
			}
			rows = append(rows, r)
		}
	}
	idx.start = make([]int, len(idx.row)+1)
	for _, r := range rows {
		idx.start[r+1]++
	}
	for r := range len(idx.row) {
		idx.start[r+1] += idx.start[r]
	}
	idx.post = make([]posting, n)
	fill := slices.Clone(idx.start[:len(idx.row)])
	k := 0
	for i, v := range items {
		for _, e := range v.Entries() {
			idx.post[fill[rows[k]]] = posting{item: int32(i), weight: e.Weight}
			fill[rows[k]]++
			k++
		}
	}
	return idx
}

// ApplyCapacities sets the Section-6 capacities on g for the given
// activity multiplier α: consumer capacities b(u) = α·n(u), and item
// capacities either favorites-proportional (flickr) or constant
// (yahoo-answers), splitting the consumer-side bandwidth B.
func (c *Corpus) ApplyCapacities(g *graph.Bipartite, alpha float64) error {
	if g.NumItems() != c.NumItems() || g.NumConsumers() != c.NumConsumers() {
		return fmt.Errorf("dataset: graph size mismatch (%d×%d vs corpus %d×%d)",
			g.NumItems(), g.NumConsumers(), c.NumItems(), c.NumConsumers())
	}
	bandwidth, err := capacity.ConsumerActivity(g, c.Activity, alpha)
	if err != nil {
		return err
	}
	if c.Favorites != nil {
		return capacity.FavoritesProportional(g, c.Favorites, bandwidth)
	}
	return capacity.ConstantPerItem(g, bandwidth)
}

// Stats summarizes a corpus for Table 1: part sizes and the number of
// non-zero-similarity pairs at the given threshold.
type Stats struct {
	Name         string
	NumItems     int
	NumConsumers int
	NumEdges     int
}

// TableStats builds the Table 1 row for this corpus.
func (c *Corpus) TableStats(sigma float64) Stats {
	g := c.BuildGraph(sigma)
	return Stats{
		Name:         c.Name,
		NumItems:     c.NumItems(),
		NumConsumers: c.NumConsumers(),
		NumEdges:     g.NumEdges(),
	}
}
