package workload

import (
	"bytes"
	"math"
	"regexp"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// FuzzReadRecording feeds arbitrary bytes to ReadRecording. No input may
// crash the parser, and an accepted recording must round-trip: its
// written form parses back and writes the same bytes again. The seeds
// are a real capture plus that capture with counts that exceed the
// records present, up to counts whose preallocation alone would exhaust
// memory.
func FuzzReadRecording(f *testing.F) {
	// Two arrivals keep the seed small, which keeps minimizing the inputs
	// the fuzzer finds interesting fast.
	p := Profile2019("a", 20)
	horizon := 12 * sim.Minute
	gen := NewGeneratorArrival(p, testCapacityCPU, horizon, rng.New(3), 1, "")
	rec := NewRecorder(gen, RecordingMeta{
		Cell: p.Name, Era: p.Era, Machines: p.Machines, Horizon: horizon,
		Seed: 3, Arrival: "poisson",
	})
	drive(rec, horizon)
	var buf bytes.Buffer
	if _, err := rec.Recording().WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	for pattern, repl := range map[string]string{
		`(?m)^arrivals \d+$`: "arrivals 400000000",
		`(?m)^A (\d+) \d+$`:  "A ${1} 400000000",
		`(?m)^(J .*) \d+$`:   "${1} 400000000",
		`(?m)^cell a$`:       `cell "a\nb"`,
	} {
		f.Add(regexp.MustCompile(pattern).ReplaceAll(good, []byte(repl)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ReadRecording(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if _, err := rec.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadRecording(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written form of an accepted recording does not parse: %v\n%s", err, first.Bytes())
		}
		if _, err := back.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("recording does not round-trip:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// FuzzParseArrival checks every arrival spec ParseArrival accepts has
// finite, positive knob values and a cohort count of at most MaxCohorts.
func FuzzParseArrival(f *testing.F) {
	for _, spec := range []string{
		"", "poisson", "gamma:cv=2.5", "weibull:cv=3", "cohorts:k=40,skew=1.5,cv=2",
		"cohorts:k=40+skew=1.5", "gamma:cv=NaN", "gamma:cv=Inf", "cohorts:k=1e12", "cohorts:k=Inf",
		"gamma:cv=1e6", "weibull:cv=5000", "weibull:cv=0.01", "gamma:cv=0.1", "cohorts:cv=10",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseArrival(spec)
		if err != nil {
			return
		}
		for knob, v := range s.Knobs {
			if !(v > 0) || math.IsInf(v, 1) {
				t.Fatalf("ParseArrival(%q) accepted %s=%g", spec, knob, v)
			}
		}
		if k := s.Knobs["k"]; k > MaxCohorts {
			t.Fatalf("ParseArrival(%q) accepted k=%g above MaxCohorts", spec, k)
		}
		if cv, ok := s.Knobs["cv"]; ok && (cv < MinArrivalCV || cv > MaxArrivalCV) {
			t.Fatalf("ParseArrival(%q) accepted cv=%g outside [MinArrivalCV, MaxArrivalCV]", spec, cv)
		}
	})
}
