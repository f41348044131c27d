// Command benchgate is the CI benchmark-regression gate: it parses `go
// test -bench` output (typically -count 3 for medians), compares each
// benchmark's median ns/op against the checked-in baseline JSON
// (BENCH_PR8.json's "after" numbers), and fails — exit status 1 — when a
// benchmark regresses beyond the tolerance factor or allocates more than
// its baseline allows. Whatever it measured is written as a fresh JSON
// artifact (BENCH_PR8.ci.json in CI) so every run extends the perf
// trajectory the baselines started.
//
// Benchmarks without a baseline entry are recorded but not gated;
// baseline entries missing from the bench output fail the gate (a
// silently deleted benchmark must not pass).
//
// Usage:
//
//	go test -run '^$' -bench 'Placement|Preemption' -benchtime 10000x -count 3 ./internal/scheduler | tee bench.txt
//	go run ./cmd/benchgate -bench bench.txt -baseline BENCH_PR8.json -tolerance 1.5 -o BENCH_PR8.ci.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// baselineFile mirrors the checked-in BENCH_PR*.json layout.
type baselineFile struct {
	Benchmarks map[string]struct {
		After map[string]float64 `json:"after"`
	} `json:"benchmarks"`
}

// run is one parsed benchmark invocation.
type run struct {
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp float64
	hasAllocs   bool
	metrics     map[string]float64
}

// result is one benchmark's gate outcome, serialized into the artifact.
type result struct {
	Name            string             `json:"name"`
	Runs            int                `json:"runs"`
	NsPerOp         float64            `json:"ns_per_op_median"`
	BytesPerOp      float64            `json:"bytes_per_op"`
	AllocsPerOp     float64            `json:"allocs_per_op"`
	Metrics         map[string]float64 `json:"metrics,omitempty"`
	BaselineNsPerOp float64            `json:"baseline_ns_per_op,omitempty"`
	Ratio           float64            `json:"ratio_vs_baseline,omitempty"`
	Status          string             `json:"status"` // ok | regressed | unbaselined
}

type artifact struct {
	Source    string   `json:"source"`
	Baseline  string   `json:"baseline"`
	Tolerance float64  `json:"tolerance"`
	Results   []result `json:"benchmarks"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	benchPath := flag.String("bench", "", "file holding `go test -bench` output")
	basePath := flag.String("baseline", "BENCH_PR8.json", "baseline JSON with per-benchmark \"after\" numbers")
	tolerance := flag.Float64("tolerance", 1.5, "fail when median ns/op exceeds tolerance × baseline")
	outPath := flag.String("o", "", "write the measured numbers as a JSON artifact")
	flag.Parse()
	if *benchPath == "" {
		log.Fatal("-bench is required")
	}

	runs, order, err := parseBench(*benchPath)
	if err != nil {
		log.Fatal(err)
	}
	if len(runs) == 0 {
		log.Fatalf("no benchmark lines found in %s", *benchPath)
	}

	baseRaw, err := os.ReadFile(*basePath)
	if err != nil {
		log.Fatal(err)
	}
	var base baselineFile
	if err := json.Unmarshal(baseRaw, &base); err != nil {
		log.Fatalf("parse %s: %v", *basePath, err)
	}

	art := artifact{Source: *benchPath, Baseline: *basePath, Tolerance: *tolerance}
	failed := false
	for _, name := range order {
		rs := runs[name]
		res := result{
			Name:        name,
			Runs:        len(rs),
			NsPerOp:     medianOf(rs, func(r run) float64 { return r.nsPerOp }),
			BytesPerOp:  medianOf(rs, func(r run) float64 { return r.bytesPerOp }),
			AllocsPerOp: medianOf(rs, func(r run) float64 { return r.allocsPerOp }),
			Status:      "unbaselined",
		}
		for key := range rs[0].metrics {
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			k := key
			res.Metrics[k] = medianOf(rs, func(r run) float64 { return r.metrics[k] })
		}
		if b, ok := base.Benchmarks[name]; ok {
			baseNs := b.After["ns_per_op"]
			if baseNs == 0 {
				baseNs = b.After["s_per_op"] * 1e9
			}
			if baseNs > 0 {
				res.BaselineNsPerOp = baseNs
				res.Ratio = res.NsPerOp / baseNs
				res.Status = "ok"
				if res.Ratio > *tolerance {
					res.Status = "regressed"
					failed = true
					log.Printf("FAIL %s: median %.0f ns/op is %.2f× baseline %.0f ns/op (tolerance %.2f×)",
						name, res.NsPerOp, res.Ratio, baseNs, *tolerance)
				} else {
					log.Printf("ok   %s: median %.0f ns/op, %.2f× baseline", name, res.NsPerOp, res.Ratio)
				}
			}
			if baseAllocs, ok := b.After["allocs_per_op"]; ok && rs[0].hasAllocs {
				if res.AllocsPerOp > baseAllocs {
					res.Status = "regressed"
					failed = true
					log.Printf("FAIL %s: %.0f allocs/op exceeds baseline %.0f", name, res.AllocsPerOp, baseAllocs)
				}
			}
		} else {
			log.Printf("new  %s: median %.0f ns/op (no baseline, recorded only)", name, res.NsPerOp)
		}
		art.Results = append(art.Results, res)
	}

	// A gateable baseline that produced no measurement is a silent hole
	// in the gate — fail loudly instead. Baseline entries without an
	// ns_per_op/s_per_op number (whole-run notes) are documentation, not
	// gates.
	for name, b := range base.Benchmarks {
		if b.After["ns_per_op"] == 0 && b.After["s_per_op"] == 0 {
			continue
		}
		if _, ok := runs[name]; !ok {
			failed = true
			log.Printf("FAIL %s: present in %s but missing from bench output", name, *basePath)
		}
	}

	if *outPath != "" {
		enc, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*outPath, append(enc, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *outPath)
	}
	if failed {
		os.Exit(1)
	}
}

// parseBench extracts benchmark runs (possibly repeated via -count) from
// go test output, preserving first-seen order.
func parseBench(path string) (map[string][]run, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	runs := make(map[string][]run)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := m[1]
		r, ok := parseFields(strings.Fields(m[3]))
		if !ok {
			continue
		}
		if _, seen := runs[name]; !seen {
			order = append(order, name)
		}
		runs[name] = append(runs[name], r)
	}
	return runs, order, sc.Err()
}

// parseFields reads the value/unit pairs after the iteration count.
func parseFields(fields []string) (run, bool) {
	r := run{metrics: make(map[string]float64)}
	ok := false
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return r, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.nsPerOp, ok = v, true
		case "B/op":
			r.bytesPerOp = v
		case "allocs/op":
			r.allocsPerOp, r.hasAllocs = v, true
		default:
			r.metrics[fields[i+1]] = v
		}
	}
	return r, ok
}

func medianOf(rs []run, get func(run) float64) float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = get(r)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
