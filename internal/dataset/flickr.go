package dataset

import (
	"math/rand"

	"repro/internal/vector"
)

// FlickrConfig parameterizes the flickr-style generator. Items are
// photos carrying a handful of tags; a consumer is a user whose vector
// is the multiset of tags on the photos they posted (Section 6: "we
// represent each photo by its tags, and each user by the set of all tags
// he or she has used").
type FlickrConfig struct {
	// NumItems and NumConsumers are the part sizes.
	NumItems     int
	NumConsumers int
	// Vocab is the tag vocabulary size.
	Vocab int
	// TagZipf is the Zipf exponent of tag popularity.
	TagZipf float64
	// TagsPerPhoto is the mean number of tags on a photo.
	TagsPerPhoto int
	// ActivityAlpha, ActivityMax shape the power-law photos-posted
	// counts n(u) (ParetoInt with xmin 1).
	ActivityAlpha float64
	ActivityMax   int
	// FavAlpha, FavMax shape the power-law favorite counts f(p).
	FavAlpha float64
	FavMax   int
	// Seed makes the corpus reproducible.
	Seed int64
}

// FlickrSmallConfig mirrors the paper's flickr-small dataset at its
// original size (Table 1: 2817 items, 526 consumers, ~550k positive
// pairs).
func FlickrSmallConfig() FlickrConfig {
	return FlickrConfig{
		NumItems:      2817,
		NumConsumers:  526,
		Vocab:         1200,
		TagZipf:       0.85,
		TagsPerPhoto:  6,
		ActivityAlpha: 1.3,
		ActivityMax:   150,
		FavAlpha:      1.2,
		FavMax:        400,
		Seed:          1,
	}
}

// FlickrLargeConfig mirrors flickr-large scaled down ~90× per side
// (Table 1: 373k items, 33k consumers; here 4200 items, 380 consumers)
// with the same items:consumers ratio (~11:1) and edge density (~16% of
// all pairs have positive similarity).
func FlickrLargeConfig() FlickrConfig {
	return FlickrConfig{
		NumItems:      4200,
		NumConsumers:  380,
		Vocab:         1600,
		TagZipf:       0.8,
		TagsPerPhoto:  6,
		ActivityAlpha: 1.1,
		ActivityMax:   400,
		FavAlpha:      1.05,
		FavMax:        2000,
		Seed:          2,
	}
}

// Flickr generates a flickr-style corpus: photos tagged by Zipf draws,
// users who posted a power-law number of photos (their vectors
// accumulate those photos' tags), and power-law favorite counts that
// drive the item capacities.
func Flickr(name string, cfg FlickrConfig) *Corpus {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tags := NewZipf(rng, cfg.TagZipf, cfg.Vocab)

	counts := newTermCounts(cfg.Vocab)
	// drawPhoto counts the tags of one photo.
	drawPhoto := func() {
		k := 1 + rng.Intn(2*cfg.TagsPerPhoto-1) // uniform 1..2m-1, mean m
		for t := 0; t < k; t++ {
			counts.add(vector.TermID(tags.Draw()))
		}
	}

	c := &Corpus{
		Name:      name,
		Items:     make([]vector.Sparse, cfg.NumItems),
		Consumers: make([]vector.Sparse, cfg.NumConsumers),
		Activity:  make([]float64, cfg.NumConsumers),
		Favorites: make([]float64, cfg.NumItems),
	}
	for i := range c.Items {
		drawPhoto()
		c.Items[i] = counts.vector()
		c.Favorites[i] = float64(ParetoInt(rng, 1, cfg.FavMax, cfg.FavAlpha) - 1)
	}
	for j := range c.Consumers {
		n := ParetoInt(rng, 1, cfg.ActivityMax, cfg.ActivityAlpha)
		c.Activity[j] = float64(n)
		// A user's vector is the sum of their photos' tag counts.
		for p := 0; p < n; p++ {
			drawPhoto()
		}
		c.Consumers[j] = counts.vector()
	}
	return c
}
