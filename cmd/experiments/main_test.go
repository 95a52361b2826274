package main

import (
	"math"
	"testing"
)

// TestConfigScale: -scale 5 and -scale -1 used to run at full scale
// without a word; a scale outside (0,1] is refused, and 0, the flag's
// default, keeps the -quick or full-scale corpora.
func TestConfigScale(t *testing.T) {
	for _, tc := range []struct {
		quick bool
		scale float64
		want  float64 // Config.Scale; 0 means refused
	}{
		{false, 0, 1},
		{true, 0, 0.12},
		{true, 0.5, 0.5},
		{false, 1, 1},
		{false, 5, 0},
		{false, -1, 0},
		{false, math.NaN(), 0},
	} {
		cfg, err := config(tc.quick, tc.scale, 7)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("-quick=%v -scale %v accepted", tc.quick, tc.scale)
		case tc.want != 0 && err != nil:
			t.Errorf("-quick=%v -scale %v: %v", tc.quick, tc.scale, err)
		case tc.want != 0 && (cfg.Scale != tc.want || cfg.Seed != 7):
			t.Errorf("-quick=%v -scale %v: Scale %v Seed %d, want %v 7",
				tc.quick, tc.scale, cfg.Scale, cfg.Seed, tc.want)
		}
	}
}
