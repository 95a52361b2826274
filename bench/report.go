package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// spec is BENCHMARK.json: the names, units and bounds the program's
// output is checked against.
type spec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricSpec                 `json:"end_to_end"`
	PerLayer  []metricSpec                 `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	var s spec
	return &s, readJSON(path, &s)
}

// metric is one reported value. A timing sampled n times within the run
// is its median with the quartiles; a count or ratio has n = 1.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

func single(v float64, unit string) metric { return metric{Value: v, Unit: unit, N: 1, Q1: v, Q3: v} }

func sampled(v []float64, unit string) metric {
	q := quartiles(v)
	return metric{Value: q[1], Unit: unit, N: len(v), Q1: q[0], Q3: q[2]}
}

// quartiles returns what Python's statistics.quantiles(v, n=4) returns,
// so that spreads computed here match the driver's. One value is its own
// quartiles.
func quartiles(v []float64) [3]float64 {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	n := len(x)
	if n == 1 {
		return [3]float64{x[0], x[0], x[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return q
}

func median(v []float64) float64 { return quartiles(v)[1] }

// fingerprint identifies the machine; compare refuses to compare runs
// whose fingerprints differ.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func machine() fingerprint {
	fp := fingerprint{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				fp.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	return fp
}

// report is the full result of one run, written to
// <out>/<workload>[.trace].json; the last line of standard output is its
// contract form.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Size        string            `json:"size"`
	Trace       bool              `json:"trace"`
	Seconds     float64           `json:"seconds"`
	Input       map[string]int    `json:"input"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	// MachineSpeed is the speed the calibrations of an untraced run saw,
	// relative to the reference box at rest: a metric stated at reference
	// speed ÷ this is about what the clock read.
	MachineSpeed *metric `json:"machine_speed,omitempty"`
}

// contractLine is the one-line form the driver reads: exactly correct,
// attempted, failed and metrics, each metric a value and a unit.
func (r *report) contractLine() string {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]valueUnit{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(line)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
