package vector

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func vec(pairs ...float64) Sparse {
	if len(pairs)%2 != 0 {
		panic("vec: odd argument count")
	}
	entries := make([]Entry, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		entries = append(entries, Entry{Term: TermID(pairs[i]), Weight: pairs[i+1]})
	}
	return FromEntries(entries)
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestFromEntriesSortsAndMerges(t *testing.T) {
	v := FromEntries([]Entry{{5, 1}, {2, 3}, {5, 2}, {9, 0}})
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if v.At(0).Term != 2 || v.At(0).Weight != 3 {
		t.Errorf("At(0) = %+v", v.At(0))
	}
	if v.At(1).Term != 5 || v.At(1).Weight != 3 {
		t.Errorf("At(1) = %+v (duplicates not merged)", v.At(1))
	}
}

// TestFromEntriesMergeOrder: duplicate terms are summed in the order
// the sort leaves them, and float addition is not associative, so
// FromEntries must keep the permutation sort.Slice gave it (both are the
// same pdqsort). The reference is that earlier implementation.
func TestFromEntriesMergeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := range 3000 {
		entries := make([]Entry, n%60)
		for i := range entries {
			entries[i] = Entry{Term: TermID(rng.Intn(1 + n%9)), Weight: rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(9)-4))}
		}
		ref := append([]Entry(nil), entries...)
		sort.Slice(ref, func(i, j int) bool { return ref[i].Term < ref[j].Term })
		var want []Entry
		for _, e := range ref {
			if k := len(want); k > 0 && want[k-1].Term == e.Term {
				want[k-1].Weight += e.Weight
			} else {
				want = append(want, e)
			}
		}
		got := FromEntries(entries).Entries()
		if len(got) != len(want) {
			t.Fatalf("slice %d: %d entries, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i].Term != want[i].Term || math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
				t.Fatalf("slice %d: entry %d is %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFromEntriesRejectsBadWeights(t *testing.T) {
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weight %v: expected panic", w)
				}
			}()
			FromEntries([]Entry{{1, w}})
		}()
	}
}

func TestWeightLookup(t *testing.T) {
	v := vec(1, 0.5, 7, 2.0, 100, 1.5)
	if !almostEq(v.Weight(7), 2.0) {
		t.Errorf("Weight(7) = %v", v.Weight(7))
	}
	if v.Weight(8) != 0 {
		t.Errorf("Weight(8) = %v, want 0", v.Weight(8))
	}
}

func TestDot(t *testing.T) {
	a := vec(1, 2, 3, 1, 5, 4)
	b := vec(2, 7, 3, 3, 5, 0.5)
	// common terms: 3 (1*3) and 5 (4*0.5) = 5
	if got := a.Dot(b); !almostEq(got, 5) {
		t.Errorf("Dot = %v, want 5", got)
	}
	if got := b.Dot(a); !almostEq(got, 5) {
		t.Errorf("Dot not symmetric: %v", got)
	}
	if got := a.Dot(Sparse{}); got != 0 {
		t.Errorf("Dot with zero = %v", got)
	}
}

func TestDotMatchesNaive(t *testing.T) {
	prop := func(aw, bw [8]uint8) bool {
		var ea, eb []Entry
		for i, w := range aw {
			if w%3 != 0 {
				ea = append(ea, Entry{TermID(i), float64(w)})
			}
		}
		for i, w := range bw {
			if w%2 != 0 {
				eb = append(eb, Entry{TermID(i), float64(w)})
			}
		}
		a, b := FromEntries(ea), FromEntries(eb)
		var naive float64
		for i := 0; i < 8; i++ {
			naive += a.Weight(TermID(i)) * b.Weight(TermID(i))
		}
		return almostEq(a.Dot(b), naive)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNormAndSum(t *testing.T) {
	v := vec(1, 3, 2, 4)
	if !almostEq(v.Norm(), 5) {
		t.Errorf("Norm = %v, want 5", v.Norm())
	}
	if !almostEq(v.Sum(), 7) {
		t.Errorf("Sum = %v, want 7", v.Sum())
	}
	if !almostEq(v.MaxWeight(), 4) {
		t.Errorf("MaxWeight = %v, want 4", v.MaxWeight())
	}
	if (Sparse{}).MaxWeight() != 0 {
		t.Error("empty MaxWeight != 0")
	}
}

func TestCosine(t *testing.T) {
	a := vec(1, 1, 2, 0.0001) // nearly axis-aligned
	if got := a.Cosine(a); !almostEq(got, 1) {
		t.Errorf("Cosine(v,v) = %v, want 1", got)
	}
	x, y := vec(1, 1), vec(2, 1)
	if got := x.Cosine(y); got != 0 {
		t.Errorf("orthogonal Cosine = %v, want 0", got)
	}
	if got := x.Cosine(Sparse{}); got != 0 {
		t.Errorf("Cosine with zero = %v, want 0", got)
	}
}

func TestNormalize(t *testing.T) {
	v := vec(1, 3, 2, 4)
	n := v.Normalize()
	if !almostEq(n.Norm(), 1) {
		t.Errorf("normalized Norm = %v", n.Norm())
	}
	// Zero vector normalizes to itself.
	z := Sparse{}.Normalize()
	if !z.IsZero() {
		t.Error("zero Normalize not zero")
	}
}

func TestScale(t *testing.T) {
	v := vec(1, 2, 3, 4)
	s := v.Scale(0.5)
	if !almostEq(s.Weight(1), 1) || !almostEq(s.Weight(3), 2) {
		t.Errorf("Scale wrong: %v", s)
	}
	if !v.Scale(0).IsZero() {
		t.Error("Scale(0) not zero")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Scale(-1): expected panic")
			}
		}()
		v.Scale(-1)
	}()
}

func TestAdd(t *testing.T) {
	a := vec(1, 1, 3, 2)
	b := vec(2, 5, 3, 3)
	s := a.Add(b)
	if !almostEq(s.Weight(1), 1) || !almostEq(s.Weight(2), 5) || !almostEq(s.Weight(3), 5) {
		t.Errorf("Add = %v", s)
	}
	if got := a.Add(Sparse{}); got.Len() != a.Len() {
		t.Error("Add zero changed vector")
	}
}

func TestAddCommutative(t *testing.T) {
	prop := func(aw, bw [6]uint8) bool {
		var ea, eb []Entry
		for i, w := range aw {
			ea = append(ea, Entry{TermID(i * 2), float64(w)})
		}
		for i, w := range bw {
			eb = append(eb, Entry{TermID(i * 3), float64(w)})
		}
		a, b := FromEntries(ea), FromEntries(eb)
		ab, ba := a.Add(b), b.Add(a)
		if ab.Len() != ba.Len() {
			return false
		}
		for i := 0; i < ab.Len(); i++ {
			if ab.At(i) != ba.At(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCauchySchwarz(t *testing.T) {
	// |a·b| ≤ ‖a‖‖b‖ must hold for all sparse vectors.
	prop := func(aw, bw [10]uint8) bool {
		var ea, eb []Entry
		for i, w := range aw {
			ea = append(ea, Entry{TermID(i), float64(w % 17)})
		}
		for i, w := range bw {
			eb = append(eb, Entry{TermID(i + 3), float64(w % 13)})
		}
		a, b := FromEntries(ea), FromEntries(eb)
		return a.Dot(b) <= a.Norm()*b.Norm()+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	v := vec(1, 0.5)
	if got := v.String(); got != "{1:0.5}" {
		t.Errorf("String = %q", got)
	}
	if got := (Sparse{}).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder()
	b.AddCount(3)
	b.AddCount(3)
	b.Add(1, 0.5)
	if b.Len() != 2 {
		t.Errorf("Builder.Len = %d", b.Len())
	}
	v := b.Vector()
	if !almostEq(v.Weight(3), 2) || !almostEq(v.Weight(1), 0.5) {
		t.Errorf("Builder vector = %v", v)
	}
	// Builder stays usable.
	b.AddCount(9)
	v2 := b.Vector()
	if v2.Len() != 3 {
		t.Errorf("Builder reuse failed: %v", v2)
	}
	if v.Len() != 2 {
		t.Error("earlier vector mutated by builder reuse")
	}
}

func TestTFIDF(t *testing.T) {
	// Term 1 appears in all 3 docs (idf=0, vanishes); term 2 in one doc.
	docs := []Sparse{
		vec(1, 2, 2, 1),
		vec(1, 1),
		vec(1, 3, 3, 2),
	}
	out := TFIDF(docs)
	if len(out) != 3 {
		t.Fatal("length changed")
	}
	if out[0].Weight(1) != 0 {
		t.Errorf("ubiquitous term kept weight %v", out[0].Weight(1))
	}
	wantT2 := 1 * math.Log(3.0/1.0)
	if !almostEq(out[0].Weight(2), wantT2) {
		t.Errorf("tfidf(term2) = %v, want %v", out[0].Weight(2), wantT2)
	}
	if out[1].Len() != 0 {
		t.Errorf("doc with only ubiquitous terms should be empty: %v", out[1])
	}
}

func TestDocumentFrequencies(t *testing.T) {
	docs := []Sparse{vec(1, 1, 2, 1), vec(2, 5)}
	df := DocumentFrequencies(docs)
	if df[1] != 1 || df[2] != 2 {
		t.Errorf("df = %v", df)
	}
}

func TestMaxWeights(t *testing.T) {
	docs := []Sparse{vec(1, 1, 2, 7), vec(2, 5, 3, 2)}
	mw := MaxWeights(docs)
	if mw[1] != 1 || mw[2] != 7 || mw[3] != 2 {
		t.Errorf("MaxWeights = %v", mw)
	}
}

func TestNormalizeAll(t *testing.T) {
	docs := []Sparse{vec(1, 3, 2, 4), vec(5, 9), {}}
	out := NormalizeAll(docs)
	if !almostEq(out[0].Norm(), 1) || !almostEq(out[1].Norm(), 1) {
		t.Error("NormalizeAll not unit")
	}
	if !out[2].IsZero() {
		t.Error("zero vector should stay zero")
	}
}
