package main

import "testing"

func TestCorpusNames(t *testing.T) {
	for _, name := range []string{"flickr-small", "flickr-large", "yahoo-answers"} {
		c, err := corpus(name, 0.03, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.NumItems() == 0 || c.NumConsumers() == 0 {
			t.Errorf("%s: empty corpus", name)
		}
	}
	if _, err := corpus("bogus", 1, 1); err == nil {
		t.Error("unknown corpus accepted")
	}
}

func TestCorpusScaling(t *testing.T) {
	full, err := corpus("flickr-small", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := corpus("flickr-small", 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumItems() >= full.NumItems() {
		t.Errorf("scaling did not shrink: %d >= %d", small.NumItems(), full.NumItems())
	}
}
