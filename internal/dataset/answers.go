package dataset

import (
	"math/rand"

	"repro/internal/vector"
)

// AnswersConfig parameterizes the yahoo-answers-style generator. Items
// are open questions, consumers are answerers; both are bags of words
// over a topical vocabulary, tf·idf weighted (Section 6: "we represent
// users by the weighted set of words in their answers... apply tf·idf
// weighting. We treat questions similarly").
type AnswersConfig struct {
	NumItems     int
	NumConsumers int
	// Vocab is the stemmed-word vocabulary size.
	Vocab int
	// WordZipf is the Zipf exponent of word frequency.
	WordZipf float64
	// Topics is the number of latent topics; each document draws most
	// words from one topic's slice of the vocabulary, which produces
	// the sparse, clustered similarity structure of question-answer
	// text (and hence a much sparser graph than flickr, as in Table 1).
	Topics int
	// WordsPerQuestion is the mean word count of a question.
	WordsPerQuestion int
	// WordsPerAnswer is the mean word count of one answer.
	WordsPerAnswer int
	// ActivityAlpha, ActivityMax shape the power-law answers-written
	// counts n(u).
	ActivityAlpha float64
	ActivityMax   int
	Seed          int64
}

// AnswersScaledConfig mirrors yahoo-answers scaled down (Table 1: 4.85M
// questions, 1.15M users; here 5200 questions, 1100 users, keeping the
// ~4.2:1 ratio and sub-percent pair density).
func AnswersScaledConfig() AnswersConfig {
	return AnswersConfig{
		NumItems:         5200,
		NumConsumers:     1100,
		Vocab:            9000,
		WordZipf:         1.0,
		Topics:           60,
		WordsPerQuestion: 10,
		WordsPerAnswer:   20,
		ActivityAlpha:    1.2,
		ActivityMax:      300,
		Seed:             3,
	}
}

// Answers generates a yahoo-answers-style corpus. Each question belongs
// to a topic and draws words from that topic's vocabulary slice (with a
// small leak into the global vocabulary); each user answers a power-law
// number of questions concentrated on a few topics of interest. Raw
// counts are tf·idf reweighted, as the paper does.
func Answers(name string, cfg AnswersConfig) *Corpus {
	rng := rand.New(rand.NewSource(cfg.Seed))
	global := NewZipf(rng, cfg.WordZipf, cfg.Vocab)
	topicSize := cfg.Vocab / cfg.Topics
	topical := NewZipf(rng, cfg.WordZipf, topicSize)

	counts := newTermCounts(cfg.Vocab)
	// drawDoc counts n words, 80% from the topic's slice, 20% global.
	drawDoc := func(topic, n int) {
		base := topic * topicSize
		for w := 0; w < n; w++ {
			if rng.Float64() < 0.8 {
				counts.add(vector.TermID(base + topical.Draw()))
			} else {
				counts.add(vector.TermID(global.Draw()))
			}
		}
	}

	c := &Corpus{
		Name:      name,
		Items:     make([]vector.Sparse, cfg.NumItems),
		Consumers: make([]vector.Sparse, cfg.NumConsumers),
		Activity:  make([]float64, cfg.NumConsumers),
	}
	for i := range c.Items {
		topic := rng.Intn(cfg.Topics)
		n := 1 + rng.Intn(2*cfg.WordsPerQuestion-1)
		drawDoc(topic, n)
		c.Items[i] = counts.vector()
	}
	for j := range c.Consumers {
		n := ParetoInt(rng, 1, cfg.ActivityMax, cfg.ActivityAlpha)
		c.Activity[j] = float64(n)
		// Users answer within a few topics of interest.
		numTopics := 1 + rng.Intn(3)
		interests := make([]int, numTopics)
		for k := range interests {
			interests[k] = rng.Intn(cfg.Topics)
		}
		for a := 0; a < n; a++ {
			topic := interests[rng.Intn(numTopics)]
			words := 1 + rng.Intn(2*cfg.WordsPerAnswer-1)
			drawDoc(topic, words)
		}
		c.Consumers[j] = counts.vector()
	}

	// tf·idf over the union corpus, then split back, exactly as one
	// joint preprocessing pass would do.
	all := make([]vector.Sparse, 0, len(c.Items)+len(c.Consumers))
	all = append(all, c.Items...)
	all = append(all, c.Consumers...)
	weighted := vector.TFIDF(all)
	// Normalize to unit length so that similarities are cosines and σ
	// sweeps a [0,1]-comparable scale across datasets.
	weighted = vector.NormalizeAll(weighted)
	copy(c.Items, weighted[:len(c.Items)])
	copy(c.Consumers, weighted[len(c.Items):])
	return c
}
