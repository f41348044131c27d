// Command borgquery runs simple filter/group-by queries over a trace
// directory using the columnar table engine — the reproduction's miniature
// BigQuery (§3, §9).
//
// Usage:
//
//	borgquery -trace ./trace-b -table usage -group tier -agg sum:avg_cpu
//	borgquery -trace ./trace-b -table collections -where tier=prod -limit 10
//
// Every column a query names is checked against the chosen table's
// schema first: an unknown column, or one of the wrong type, is an error
// that lists the valid columns.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"repro/internal/table"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("borgquery: ")
	dir := flag.String("trace", "", "trace directory (required)")
	tbl := flag.String("table", "collections", "table: collections, instances or usage")
	where := flag.String("where", "", "filter on a string column, e.g. tier=prod")
	group := flag.String("group", "", "group-by column")
	agg := flag.String("agg", "", "aggregation of a float column with -group, e.g. sum:avg_cpu or mean:avg_mem")
	limit := flag.Int("limit", 20, "max rows to print")
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	tr, err := trace.ReadDir(*dir)
	if err != nil {
		log.Fatal(err)
	}
	if err := run(os.Stdout, tr, *tbl, *where, *group, *agg, *limit); err != nil {
		log.Fatal(err)
	}
}

// aggs maps each -agg kind to its aggregation constructor.
var aggs = map[string]func(name, col string) table.Agg{
	"sum": table.Sum, "mean": table.Mean, "min": table.Min, "max": table.Max,
}

// run answers one query over tr's table tbl and writes the result to w:
// rows matching where (col=value), grouped by group with a row count and
// the optional agg (kind:column), at most limit rows.
func run(w io.Writer, tr *trace.MemTrace, tbl, where, group, agg string, limit int) error {
	t, err := buildTable(tr, tbl)
	if err != nil {
		return err
	}
	q := table.From(t)
	if where != "" {
		col, val, ok := strings.Cut(where, "=")
		if !ok {
			return fmt.Errorf("bad -where %q (want col=value)", where)
		}
		if err := checkColumn(t, "-where", col, table.String); err != nil {
			return err
		}
		q = q.Where(table.EqString(col, val))
	}
	if group == "" {
		if agg != "" {
			return fmt.Errorf("-agg %q needs -group", agg)
		}
		_, err := io.WriteString(w, q.Limit(limit).Materialize().Format(limit))
		return err
	}
	if err := checkColumn(t, "-group", group); err != nil {
		return err
	}
	list := []table.Agg{table.Count("n")}
	if agg != "" {
		kind, col, ok := strings.Cut(agg, ":")
		if !ok {
			return fmt.Errorf("bad -agg %q (want kind:column)", agg)
		}
		mk, ok := aggs[kind]
		if !ok {
			return fmt.Errorf("unknown aggregation %q (want sum, mean, min or max)", kind)
		}
		if err := checkColumn(t, "-agg", col, table.Float64); err != nil {
			return err
		}
		list = append(list, mk(kind+"_"+col, col))
	}
	_, err = io.WriteString(w, q.GroupBy([]string{group}, list...).Format(limit))
	return err
}

// checkColumn returns an error naming the valid choices unless t has a
// column name of type want (of any type when want is empty).
func checkColumn(t *table.Table, flagName, name string, want ...table.ColType) error {
	var valid []string
	for _, c := range t.Columns() {
		if len(want) == 0 || c.Type == want[0] {
			valid = append(valid, c.Name)
		}
	}
	if slices.Contains(valid, name) {
		return nil
	}
	return fmt.Errorf("%s: %q is not a valid column here; valid: %s", flagName, name, strings.Join(valid, ", "))
}

// buildTable adapts one trace table into the columnar engine.
func buildTable(tr *trace.MemTrace, name string) (*table.Table, error) {
	switch name {
	case "collections":
		t := table.New(
			table.Column{Name: "id", Type: table.Int64},
			table.Column{Name: "type", Type: table.String},
			table.Column{Name: "tier", Type: table.String},
			table.Column{Name: "priority", Type: table.Int64},
			table.Column{Name: "user", Type: table.String},
			table.Column{Name: "final", Type: table.String},
			table.Column{Name: "parent", Type: table.Int64},
		)
		for _, info := range tr.CollectionInfos() {
			t.Append(int64(info.ID), info.CollectionType.String(), info.Tier.String(),
				int64(info.Priority), info.User, info.FinalEvent.String(), int64(info.Parent))
		}
		return t, nil
	case "instances":
		t := table.New(
			table.Column{Name: "collection", Type: table.Int64},
			table.Column{Name: "index", Type: table.Int64},
			table.Column{Name: "type", Type: table.String},
			table.Column{Name: "tier", Type: table.String},
			table.Column{Name: "machine", Type: table.Int64},
			table.Column{Name: "time", Type: table.Int64},
		)
		for _, ev := range tr.InstanceEvents {
			t.Append(int64(ev.Key.Collection), int64(ev.Key.Index), ev.Type.String(),
				ev.Tier.String(), int64(ev.Machine), int64(ev.Time))
		}
		return t, nil
	case "usage":
		t := table.New(
			table.Column{Name: "collection", Type: table.Int64},
			table.Column{Name: "tier", Type: table.String},
			table.Column{Name: "machine", Type: table.Int64},
			table.Column{Name: "avg_cpu", Type: table.Float64},
			table.Column{Name: "avg_mem", Type: table.Float64},
			table.Column{Name: "max_cpu", Type: table.Float64},
			table.Column{Name: "limit_cpu", Type: table.Float64},
			table.Column{Name: "limit_mem", Type: table.Float64},
		)
		for _, rec := range tr.UsageRecords {
			t.Append(int64(rec.Key.Collection), rec.Tier.String(), int64(rec.Machine),
				rec.AvgUsage.CPU, rec.AvgUsage.Mem, rec.MaxUsage.CPU,
				rec.Limit.CPU, rec.Limit.Mem)
		}
		return t, nil
	default:
		return nil, fmt.Errorf("unknown table %q (want collections, instances or usage)", name)
	}
}
