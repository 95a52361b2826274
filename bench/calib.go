package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// calibRef is what calibrator.measure takes on the reference box (2 vCPU
// Xeon 2.1 GHz, go1.24) while no neighbour contends for its cores. It
// only fixes the unit: a time scaled by calibRef ÷ measure reads as
// seconds of that box at rest.
const calibRef = 190 * time.Millisecond

// calibrator times a fixed piece of work, so that the time of a job next
// to it can be stated at a reference speed. It exists because on a
// shared machine identical jobs run up to 1.45× slower for minutes at a
// time (README.md, Noise floor): ten runs of raw seconds spread wider
// than any bound the driver accepts, and longer jobs do not help.
//
// The work calls none of the repository's code and allocates nothing
// (the buffers are made once), and a collection runs first, so neither
// the heap a job left behind nor the marking of its garbage reaches the
// measurement. What a change to the repository can still move is the
// state of the caches it leaves.
type calibrator struct {
	steps int      // of the arithmetic chains
	src   []uint64 // keys every processor sorts a copy of; read only
	bufs  []*calibBuf
}

type calibBuf struct {
	table [4096]uint64
	keys  []uint64
	sink  uint64 // keeps the work from being optimised away
}

// The full work, to which calibRef belongs: calibKeys keys (8 MB) are
// sorted per processor, beyond the caches a core has to itself, as the
// shuffle's sorts are.
const (
	calibSteps = 20_000_000
	calibKeys  = 1 << 20
)

// newCalibrator makes a calibrator for procs processors that does
// 1/shrink of the full work; only shrink 1 measures a speed.
func newCalibrator(procs, shrink int) *calibrator {
	c := &calibrator{steps: calibSteps / shrink, src: make([]uint64, calibKeys/shrink)}
	x := uint64(0x9E3779B97F4A7C15)
	for i := range c.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.src[i] = x
	}
	for p := 0; p < procs; p++ {
		b := &calibBuf{keys: make([]uint64, len(c.src))}
		for i := range b.table {
			b.table[i] = uint64(i) * 0x9E3779B97F4A7C15
		}
		c.bufs = append(c.bufs, b)
	}
	c.measure(procs) // faults the buffers in
	return c
}

// measure returns how long the work takes now on procs goroutines: as
// many as the work next to it keeps busy. (A set-up is single-threaded;
// timed against both processors it read half its time whenever the box
// had idled before the run, because the second vCPU is slow to come
// back.)
func (c *calibrator) measure(procs int) time.Duration {
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for _, b := range c.bufs[:procs] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.work(c.steps, c.src)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// work is two parts of about equal length on the reference box: four
// dependent arithmetic chains with cache-resident lookups, and a sort.
// Of the kinds tried (also a pointer chase and a streaming sum over
// 64 MB) this pair tracked the four workloads' job times as well as any.
func (b *calibBuf) work(steps int, src []uint64) {
	w, x, y, z := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < steps; i++ {
		w = w*6364136223846793005 + b.table[x&4095]
		x = x*1442695040888963407 + b.table[y&4095]
		y = y ^ (y << 13) + b.table[z&4095]
		z = z ^ (z >> 7) + b.table[w&4095]
	}
	copy(b.keys, src)
	slices.Sort(b.keys)
	b.sink += w + x + y + z + b.keys[0]
}

// speed is the machine's speed around a piece of work, relative to the
// reference box at rest, from the measurements before and after it.
func speed(before, after time.Duration) float64 {
	return float64(calibRef) / (float64(before+after) / 2)
}
