package experiments

import (
	"fmt"
	"io"
	"strings"
)

// table renders rows of labeled float columns with a header.
type table struct {
	headers []string
	rows    [][]string
}

func newTable(headers ...string) *table {
	return &table{headers: headers}
}

func (t *table) row(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *table) rowf(label string, format string, vals ...float64) {
	cells := []string{label}
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf(format, v))
	}
	t.row(cells...)
}

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.headers)
	seps := make([]string, len(t.headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

func fmtCombo(c []int) string {
	if c == nil {
		return "dynamic"
	}
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n\n", title)
}
