package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/vector"
)

func sum256(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// edgeBytes renders g's edges in order as (item, consumer, weight bits).
func edgeBytes(g *graph.Bipartite) []byte {
	var b []byte
	for _, e := range g.Edges() {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Item))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.Consumer))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Weight))
	}
	return b
}

// corpusBytes renders every vector (length, then term and weight bits
// per entry) and the activity and favorites columns.
func corpusBytes(c *Corpus) []byte {
	var b []byte
	for _, docs := range [][]vector.Sparse{c.Items, c.Consumers} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(docs)))
		for _, d := range docs {
			b = binary.LittleEndian.AppendUint32(b, uint32(d.Len()))
			for _, e := range d.Entries() {
				b = binary.LittleEndian.AppendUint32(b, uint32(e.Term))
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Weight))
			}
		}
	}
	for _, col := range [][]float64{c.Activity, c.Favorites} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(col)))
		for _, x := range col {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b
}

// TestGeneratorsGolden pins the generators' output bit for bit: the
// synthetic zipf graph (the benchmark's shape at a hundredth of its
// size) with its capacities, the Flickr and Answers corpora, and
// BuildGraph's edge list on both corpora at two thresholds, built at
// GOMAXPROCS 1 and 4 over more consumers than one scoring block holds.
// Every literal was recorded from an earlier build; if this test fails,
// a random draw, a summation order or BuildGraph's edge order moved — do
// not edit them.
func TestGeneratorsGolden(t *testing.T) {
	syn := Synthetic(SyntheticConfig{
		NumItems: 3000, NumConsumers: 300, MeanDegree: 10,
		DegreeAlpha: 1.4, WeightScale: 1, CapacityAlpha: 1.2,
		CapacityMax: 200, Seed: 1,
	})
	b := edgeBytes(syn)
	for v := 0; v < syn.NumNodes(); v++ {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(syn.Capacity(graph.NodeID(v))))
	}
	const synWant = "166d0adb058aa8a615e21edb64c320e74c5026968c35c1223207d2ae9131f65a"
	if n, got := syn.NumEdges(), sum256(b); n != 8058 || got != synWant {
		t.Errorf("synthetic: %d edges hashing to %s, want 8058 and %s", n, got, synWant)
	}

	fcfg := FlickrSmallConfig()
	fcfg.NumItems, fcfg.NumConsumers = 600, 150
	acfg := AnswersScaledConfig()
	acfg.NumItems, acfg.NumConsumers = 1200, 260
	corpora := []struct {
		c    *Corpus
		want string
	}{
		{Flickr("flickr", fcfg), "53f58b1ba1918790fe16be634c3cb8c2bab19a714708b68ca281c7087f9dfcb6"},
		{Answers("answers", acfg), "4006e2c7c268edf708ed9cdf49df4942c76b4db55334bf426afdd21aa50bbaa2"},
	}
	for _, k := range corpora {
		if got := sum256(corpusBytes(k.c)); got != k.want {
			t.Errorf("%s corpus hashes to %s, want %s", k.c.Name, got, k.want)
		}
	}

	graphs := []struct {
		c     *Corpus
		sigma float64
		edges int
		want  string
	}{
		{corpora[0].c, 2, 17200, "1943872a36dad39dc797bcd38e1fe74ae5966441f87bae523699cac10f0a2b9b"},
		{corpora[0].c, 4, 6480, "c12c99bf7aab87fa94496080f8e3d48bf1ef721134ff987683a8a5dbb34c74d6"},
		{corpora[1].c, 0.1, 4943, "edfbf259eee9ed2e2ce1080647b8ca14e204d56f0bcfad400882607f8b1f167d"},
		{corpora[1].c, 0.2, 3401, "8a160e4453110924589f61234571bfe50e65f08597eba3205daf6a508db3bfc0"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, k := range graphs {
			g := k.c.BuildGraph(k.sigma)
			if n, got := g.NumEdges(), sum256(edgeBytes(g)); n != k.edges || got != k.want {
				t.Errorf("GOMAXPROCS %d: %s at σ=%v: %d edges hashing to %s, want %d and %s",
					procs, k.c.Name, k.sigma, n, got, k.edges, k.want)
			}
		}
	}
}

// queueSource is a rand.Source that returns queued Int63 values, so a
// test can feed Draw chosen uniforms.
type queueSource struct{ q []int64 }

func (s *queueSource) Int63() int64 {
	v := s.q[0]
	s.q = s.q[1:]
	return v
}

func (s *queueSource) Seed(int64) {}

// TestZipfDrawMatchesSearch holds Draw to a binary search of the CDF,
// sort.SearchFloat64s(cdf, u), on the same uniform u: a seeded stream,
// then u on both sides of every k/n and of every CDF value, where a
// bucketed lookup would go wrong first.
// The exponents include 50, whose CDF is flat at 1 after the first few
// ranks.
func TestZipfDrawMatchesSearch(t *testing.T) {
	for _, n := range []int{1, 2, 7, 30000} {
		for _, s := range []float64{0.7, 1, 1.4, 50} {
			name := fmt.Sprintf("n=%d s=%v", n, s)
			z := NewZipf(rand.New(rand.NewSource(int64(n))), s, n)
			ref := rand.New(rand.NewSource(int64(n)))
			for range 20000 {
				if got, want := z.Draw(), sort.SearchFloat64s(z.cdf, ref.Float64()); got != want {
					t.Fatalf("%s: seeded draw %d, search %d", name, got, want)
				}
			}
			var us []float64
			for k := 0; k <= n; k++ {
				x := float64(k) / float64(n)
				us = append(us, math.Nextafter(x, -1), x, math.Nextafter(x, 2))
			}
			for _, c := range z.cdf {
				us = append(us, math.Nextafter(c, -1), c, math.Nextafter(c, 2))
			}
			src := &queueSource{}
			z = NewZipf(rand.New(src), s, n)
			for _, u := range us {
				if u < 0 || u >= 1 {
					continue
				}
				// Int63 / 2⁶³ is how rand.Float64 makes u; ref reads
				// the same value back, so both sides see the same u
				// even where u·2⁶³ is not an integer.
				v := int64(u * (1 << 63))
				src.q = append(src.q, v)
				ru := rand.New(&queueSource{q: []int64{v}}).Float64()
				if got, want := z.Draw(), sort.SearchFloat64s(z.cdf, ru); got != want {
					t.Fatalf("%s: u=%v: draw %d, search %d", name, ru, got, want)
				}
			}
		}
	}
}
