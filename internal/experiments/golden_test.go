package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/R<n>.golden from this run")

// notPinned names the experiments whose tables are not a function of their
// inputs yet, with the reason. R20 stays covered by TestShardSmoke, admit's
// TestDecisionTraceGolden and the benchmark's exact rows until ROADMAP item 5
// makes its verdicts reproducible.
var notPinned = map[string]string{
	"R20": "concurrent serving decides in goroutine-interleaving order, so the verdict set differs run to run",
}

// slowGoldens are the multi-second experiments, skipped under -short.
var slowGoldens = map[string]bool{"R18": true, "R21": true}

// TestRTableGolden runs every registered experiment and compares its rendered
// table with testdata/R<n>.golden. Cells in the columns the experiment
// declares as Table.HostTime are blanked on both sides; every other cell,
// the title and the notes must match byte for byte. A deliberate table
// change is recorded with `make goldens` (-update-golden) and reviewed as
// the golden's diff.
func TestRTableGolden(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			if why := notPinned[id]; why != "" {
				t.Skip(why)
			}
			if slowGoldens[id] && testing.Short() {
				t.Skip("multi-second experiment")
			}
			tab, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			got := renderGolden(t, tab)
			path := filepath.Join("testdata", id+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (record it with -update-golden)", err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s (-want +got):\n%s", id, path, lineDiff(string(want), got))
			}
		})
	}
}

// renderGolden renders the table with every HostTime cell replaced by "~".
// The blanking happens before rendering because column widths follow the
// cell contents.
func renderGolden(t *testing.T, tab *Table) string {
	t.Helper()
	blank := *tab
	blank.Rows = make([][]string, len(tab.Rows))
	for i, row := range tab.Rows {
		blank.Rows[i] = append([]string(nil), row...)
	}
	for _, name := range tab.HostTime {
		col := -1
		for i, h := range tab.Header {
			if h == name {
				col = i
			}
		}
		if col < 0 {
			t.Fatalf("%s: HostTime names %q, which is not a header column", tab.ID, name)
		}
		for _, row := range blank.Rows {
			if col < len(row) {
				row[col] = "~"
			}
		}
	}
	var sb strings.Builder
	blank.Fprint(&sb)
	return sb.String()
}

// lineDiff lists the lines at which two renderings differ.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var sb strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			sb.WriteString("-" + wl + "\n+" + gl + "\n")
		}
	}
	return sb.String()
}
