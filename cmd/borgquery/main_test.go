package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRunChecksColumns runs queries against a small simulated cell: each
// bad column is an error listing the valid ones, never a panic, and a
// valid query renders its groups.
func TestRunChecksColumns(t *testing.T) {
	p, opts := workload.Profile2019("a", 10), core.Options{Horizon: sim.Hour, Seed: 2}
	tr := trace.NewMemTrace(core.TraceMeta(p, opts))
	opts.Sinks = []trace.Sink{tr}
	core.Run(p, opts)

	for _, tc := range []struct {
		name                   string
		tbl, where, group, agg string
		want                   []string // substrings of the error, or of the output when ok
		ok                     bool
	}{
		{name: "unknown where column", tbl: "collections", where: "nosuch=x",
			want: []string{`-where: "nosuch" is not a valid column`, "valid: type, tier, user, final"}},
		{name: "int where column", tbl: "collections", where: "priority=5",
			want: []string{`-where: "priority" is not a valid column`, "valid: type, tier, user, final"}},
		{name: "string agg column", tbl: "usage", group: "tier", agg: "sum:tier",
			want: []string{`-agg: "tier" is not a valid column`, "valid: avg_cpu, avg_mem, max_cpu, limit_cpu, limit_mem"}},
		{name: "valid group", tbl: "usage", where: "tier=prod", group: "tier", agg: "sum:avg_cpu",
			want: []string{"tier", "n", "sum_avg_cpu", "prod"}, ok: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(&out, tr, tc.tbl, tc.where, tc.group, tc.agg, 20)
			got := out.String()
			if tc.ok {
				if err != nil {
					t.Fatal(err)
				}
			} else {
				if err == nil {
					t.Fatalf("no error; output:\n%s", got)
				}
				got = err.Error()
			}
			for _, w := range tc.want {
				if !strings.Contains(got, w) {
					t.Errorf("%q lacks %q", got, w)
				}
			}
		})
	}
}
