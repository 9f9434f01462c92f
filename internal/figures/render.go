package figures

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"dynaq/internal/experiment"
	"dynaq/internal/metrics"
	"dynaq/internal/telemetry"
	"dynaq/internal/units"
)

// Figure is every figure's result: labelled rows of named values. Table
// prints it and cmd/experiments writes it as result.json; decoding that file
// into a Figure and calling Table prints the same table.
type Figure struct {
	// Name identifies the result, e.g. "fig8" or "victim-selection".
	Name string
	// Labels names the label columns, Columns the value columns; the header
	// is the one, then the other.
	Labels  []string
	Columns []Column
	Rows    []Row
	// Note, when set, is a line printed under the table.
	Note *Note `json:",omitempty"`
	// docs are the scenario documents the cells ran and outcomes their
	// results, in cell order, byte for byte; WriteArtifacts writes both.
	docs, outcomes [][]byte
}

// Column is a value column: its name and the unit its values print in.
type Column struct {
	Name string
	Unit Unit
}

// Row is one row of a figure: its labels, one value per column, and for the
// static figures that plot them, the run's throughput series and queue trace.
// No value is NaN or ±Inf, which JSON cannot carry.
type Row struct {
	Labels []string
	Values []float64
	Series []metrics.ThroughputSample `json:",omitempty"`
	Trace  []metrics.QueueSample      `json:",omitempty"`
}

// Note is a line under a table: "Name: value".
type Note struct {
	Column
	Value float64
}

// Unit is how a value prints.
type Unit string

// The units a value prints in.
const (
	Fixed2   Unit = "fixed2"   // two decimals
	Fixed3   Unit = "fixed3"   // three decimals
	Count    Unit = "count"    // an integer
	OutOf    Unit = "out-of"   // an integer appended to the previous cell as "/n"
	Percent  Unit = "percent"  // a fraction, as a whole percentage
	Percent2 Unit = "percent2" // a fraction, as a percentage with two decimals
	BitRate  Unit = "rate"     // bits per second, as units.Rate prints it
	Bytes    Unit = "bytes"    // bytes, as units.ByteSize prints it
	Size     Unit = "size"     // bytes, compactly with one decimal
	// FCT is a completion time in picoseconds. It prints in milliseconds in
	// DynaQ's row and, in any other row, as the ratio to DynaQ's row with the
	// same other labels — the paper normalizes FCTs by DynaQ's (§V) — or "-"
	// where DynaQ's value is 0.
	FCT Unit = "fct"
)

// format prints v in u; FCT prints its absolute form.
func (u Unit) format(v float64) string {
	switch u {
	case Fixed2:
		return fmt.Sprintf("%.2f", v)
	case Fixed3:
		return fmt.Sprintf("%.3f", v)
	case Count:
		return fmt.Sprintf("%d", int64(v))
	case OutOf:
		return fmt.Sprintf("/%d", int64(v))
	case Percent:
		return fmt.Sprintf("%.0f%%", 100*v)
	case Percent2:
		return fmt.Sprintf("%.2f%%", 100*v)
	case BitRate:
		return units.Rate(v).String()
	case Bytes:
		return units.ByteSize(v).String()
	case Size:
		return sizeStr(units.ByteSize(v))
	case FCT:
		return fmt.Sprintf("%.2fms", v/float64(units.Millisecond))
	default:
		return fmt.Sprint(v)
	}
}

// sizeStr renders a byte size compactly with one decimal.
func sizeStr(b units.ByteSize) string {
	switch {
	case b >= units.GB:
		return fmt.Sprintf("%.1fGB", float64(b)/1e9)
	case b >= units.MB:
		return fmt.Sprintf("%.1fMB", float64(b)/1e6)
	case b >= units.KB:
		return fmt.Sprintf("%.1fKB", float64(b)/1e3)
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// cell prints row r's value in column j.
func (f *Figure) cell(r *Row, j int) string {
	v, u := r.Values[j], f.Columns[j].Unit
	if u != FCT {
		return u.format(v)
	}
	base := f.dynaqRow(r)
	switch {
	case base == r:
		return u.format(v)
	case base == nil || units.Duration(base.Values[j]) == 0:
		return "-"
	default:
		return fmt.Sprintf("%.2fx", v/base.Values[j])
	}
}

// dynaqRow is the row with r's labels but DynaQ in the "scheme" label
// column: r itself in a DynaQ row, nil if there is none.
func (f *Figure) dynaqRow(r *Row) *Row {
	k := slices.Index(f.Labels, "scheme")
	for i := range f.Rows {
		q := &f.Rows[i]
		if k >= 0 && q.Labels[k] == string(experiment.DynaQ) &&
			slices.Equal(q.Labels[:k], r.Labels[:k]) && slices.Equal(q.Labels[k+1:], r.Labels[k+1:]) {
			return q
		}
	}
	return nil
}

// Table renders the figure as a fixed-width text table with a header
// separator, each column padded to its widest cell, and the note under it.
func (f *Figure) Table() string {
	header := slices.Clone(f.Labels)
	for _, c := range f.Columns {
		if c.Unit != OutOf {
			header = append(header, c.Name)
		}
	}
	rows := [][]string{header}
	for i := range f.Rows {
		r := &f.Rows[i]
		cells := slices.Clone(r.Labels)
		for j, c := range f.Columns {
			if c.Unit == OutOf {
				cells[len(cells)-1] += f.cell(r, j)
			} else {
				cells = append(cells, f.cell(r, j))
			}
		}
		rows = append(rows, cells)
	}
	widths := make([]int, len(header))
	for _, row := range rows {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	for i, row := range rows {
		line(row)
		if i == 0 {
			rules := make([]string, len(widths))
			for k, w := range widths {
				rules[k] = strings.Repeat("-", w)
			}
			line(rules)
		}
	}
	if f.Note != nil {
		fmt.Fprintf(&b, "%s: %s\n", f.Note.Name, f.Note.Unit.format(f.Note.Value))
	}
	return b.String()
}

// WriteArtifacts records the figure in dir: each cell's scenario document as
// cell-<i>.json, which dynaqsim -config replays, and its result beside it as
// cell-<i>.outcome.json; the manifest man, whose summary gives the scale and
// each cell file's scenario hash; and the figure as result.json. Struct field
// order keeps result.json byte-stable across identical runs.
func (f *Figure) WriteArtifacts(dir string, man telemetry.Manifest, scale string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	summary := []telemetry.SummaryEntry{{Key: "scale", Value: scale}}
	for i, doc := range f.docs {
		name := fmt.Sprintf("cell-%02d.json", i)
		if err := os.WriteFile(filepath.Join(dir, name), doc, 0o644); err != nil {
			return err
		}
		outcome := fmt.Sprintf("cell-%02d.outcome.json", i)
		if err := os.WriteFile(filepath.Join(dir, outcome), f.outcomes[i], 0o644); err != nil {
			return err
		}
		summary = append(summary, telemetry.SummaryEntry{Key: name, Value: telemetry.Hash(doc)})
	}
	if err := telemetry.WriteManifest(dir, man, summary); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644)
}

// find returns the one row whose labels include every label given.
func (f *Figure) find(labels ...string) (*Row, error) {
	var found *Row
	for i := range f.Rows {
		r := &f.Rows[i]
		if !containsAll(r.Labels, labels) {
			continue
		}
		if found != nil {
			return nil, fmt.Errorf("%s: labels %q match more than one row", f.Name, labels)
		}
		found = r
	}
	if found == nil {
		return nil, fmt.Errorf("%s: no row labelled %q", f.Name, labels)
	}
	return found, nil
}

// Value returns the named column's value in the one row whose labels
// include every label given. An unknown column or label is an error.
func (f *Figure) Value(column string, labels ...string) (float64, error) {
	j := slices.IndexFunc(f.Columns, func(c Column) bool { return c.Name == column })
	if j < 0 {
		return 0, fmt.Errorf("%s: no column %q", f.Name, column)
	}
	r, err := f.find(labels...)
	if err != nil {
		return 0, err
	}
	return r.Values[j], nil
}

func containsAll(have, want []string) bool {
	for _, w := range want {
		if !slices.Contains(have, w) {
			return false
		}
	}
	return true
}
