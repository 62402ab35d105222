package experiments

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result: a title, column headers, and rows.
// Every experiment renders to this shape so cmd/maskexp and the benchmarks
// share one output path.
type Table struct {
	ID    string
	Title string
	Note  string
	Cols  []string
	Rows  [][]string
}

// AddRow appends a row of already formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row, formatting float64 cells with prec decimals and
// passing strings through.
func (t *Table) AddRowf(prec int, cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.*f", prec, v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Cols)
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// WriteCSV streams the table as RFC-4180-ish CSV (quoting only cells that
// need it) row by row: no whole-table string is ever materialized.
// cmd/maskexp's -csv flag streams one file per table for plotting.
func (t *Table) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	writeCSVRow(bw, t.Cols)
	for _, row := range t.Rows {
		writeCSVRow(bw, row)
	}
	return bw.Flush()
}

func writeCSVRow(b *bufio.Writer, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}
