// Command datagen generates the synthetic datasets of the reproduction
// and writes them as edge-list graph files consumable by cmd/bmatch.
//
// Usage:
//
//	datagen -dataset flickr-small -sigma 4 -alpha 1 -o graph.txt
//	datagen -dataset synthetic -items 100000 -consumers 10000 -o big.txt
//
// Datasets: flickr-small, flickr-large, yahoo-answers (vector corpora
// with Section-4 capacities), synthetic (direct edge-level generator for
// scale runs).
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/cliio"
	"repro/internal/dataset"
	"repro/internal/graph"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	var (
		name      = fs.String("dataset", "flickr-small", "flickr-small | flickr-large | yahoo-answers | synthetic")
		sigma     = fs.Float64("sigma", 0, "similarity threshold for candidate edges (0 keeps all positive pairs)")
		alpha     = fs.Float64("alpha", 1, "consumer capacity multiplier b(u) = alpha * n(u)")
		scale     = fs.Float64("scale", 1, "corpus size scale factor in (0,1]")
		out       = fs.String("o", "", "output file (default stdout)")
		items     = fs.Int("items", 20000, "synthetic: number of items")
		consumers = fs.Int("consumers", 2000, "synthetic: number of consumers")
		degree    = fs.Int("degree", 10, "synthetic: mean item degree")
		seed      = fs.Int64("seed", 1, "random seed")
		sorted    = fs.Bool("sort", false, "write edges in descending weight order, ties by (item, consumer)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// -h printed usage; that is a clean exit, not a failure.
			return nil
		}
		return err
	}

	g, err := build(*name, *sigma, *alpha, *scale, *items, *consumers, *degree, *seed)
	if err != nil {
		return err
	}
	if *sorted {
		g = sortEdges(g)
	}

	// The checked close is what makes a full disk a nonzero exit: the
	// write may land entirely in the buffer, and only a clean
	// flush-and-close proves the graph reached the file.
	w, err := cliio.Create(*out)
	if err != nil {
		return err
	}
	defer cliio.CloseInto(w, &err)
	if err := graph.Write(w, g); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "datagen: %s |T|=%d |C|=%d |E|=%d\n",
		*name, g.NumItems(), g.NumConsumers(), g.NumEdges())
	return nil
}

func build(name string, sigma, alpha, scale float64, items, consumers, degree int, seed int64) (*graph.Bipartite, error) {
	if err := dataset.CheckScale(scale); err != nil {
		return nil, err
	}
	if !(sigma >= 0) || math.IsInf(sigma, 1) {
		return nil, fmt.Errorf("-sigma %v is not a finite number ≥ 0", sigma)
	}
	if name == "synthetic" {
		switch {
		case items < 1 || consumers < 1:
			return nil, fmt.Errorf("-items %d and -consumers %d must both be at least 1", items, consumers)
		case items > math.MaxInt32-consumers:
			return nil, fmt.Errorf("-items %d plus -consumers %d is past %d, the last node id", items, consumers, math.MaxInt32)
		case degree < 1:
			return nil, fmt.Errorf("-degree %d must be at least 1", degree)
		}
		return dataset.Synthetic(dataset.SyntheticConfig{
			NumItems: items, NumConsumers: consumers, MeanDegree: degree,
			DegreeAlpha: 1.4, WeightScale: 1, CapacityAlpha: 1.2,
			CapacityMax: 200, Seed: seed,
		}), nil
	}
	c, err := dataset.ByName(name, scale, seed)
	if err != nil {
		return nil, err
	}
	g := c.BuildGraph(sigma)
	if err := c.ApplyCapacities(g, alpha); err != nil {
		return nil, err
	}
	return g, nil
}

// sortEdges rebuilds the graph with its edges in the centralized
// greedy's order: decreasing weight, ties by (item, consumer). The
// order is computed before out's edge slice is grown, so the sort's
// scratch and out's edges are never live at once.
func sortEdges(g *graph.Bipartite) *graph.Bipartite {
	out := graph.NewBipartite(g.NumItems(), g.NumConsumers())
	for v := 0; v < g.NumNodes(); v++ {
		out.SetCapacity(graph.NodeID(v), g.Capacity(graph.NodeID(v)))
	}
	order := g.SortEdgesByWeightDesc()
	out.Grow(g.NumEdges())
	for _, i := range order {
		e := g.Edge(int(i))
		out.AddEdge(e.Item, e.Consumer, e.Weight)
	}
	return out
}
