// Package experiments regenerates the evaluation of the reproduced paper:
// every table/figure indexed in DESIGN.md (the registry below) is a function
// here that produces a Table of results. cmd/meshbench prints them, and
// TestRTableGolden pins every cell that is not host time against
// testdata/R<n>.golden. Timing is measured by benchmark/, not here.
//
// Because the original paper's text is unavailable (see DESIGN.md), the
// experiments reconstruct the evaluation style of the Djukic-Valaee papers:
// minimum frame length vs. offered VoIP load, delay-aware vs. arbitrary
// transmission orders, TDMA-emulation vs. 802.11 DCF capacity and delay,
// emulation overhead vs. guard time, and schedule violations vs. clock-sync
// error. EXPERIMENTS.md records expected shape vs. measured output.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's result grid.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes explains parameters and reading of the table.
	Notes string
	// HostTime names the columns whose cells are measured host wall clock
	// and so differ run to run; every other cell is a function of the
	// experiment's inputs and is pinned by TestRTableGolden.
	HostTime []string
}

// AddRow appends a row of cells formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Notes != "" {
		fmt.Fprintf(w, "%s\n", t.Notes)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, " ", strings.Join(parts, "  "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the table as CSV with an experiment-id column prepended,
// so several tables can share one file.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"experiment"}, t.Header...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(append([]string{t.ID}, row...)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// registry lists every experiment in canonical order. The title lives
// here, not in the experiment function, so `meshbench -list` and the rendered
// table cannot drift apart; ByID fills it in.
var registry = []struct {
	name, title string
	fn          func() (*Table, error)
}{
	{"R1", "Minimum TDMA window (slots) vs. number of G.711 calls", R1MinFrameLength},
	{"R2", "End-to-end scheduling delay (ms) vs. hop count, by transmission order", R2DelayAwareOrdering},
	{"R3", "VoIP call capacity at toll quality: TDMA emulation vs. 802.11 DCF", R3VoIPCapacity},
	{"R4", "Worst-flow delay and quality at fixed load: TDMA emulation vs. DCF", R4DelayDistribution},
	{"R5", "Slot efficiency: 802.11-emulated vs. native 802.16 OFDM", R5EmulationOverhead},
	{"R6", "Schedule-violation rate vs. per-hop sync error, by guard interval", R6SyncTolerance},
	{"R7", "Scheduler wall time vs. network size", R7SchedulerScalability},
	{"R8", "DCF saturation throughput vs. number of contending senders", R8DCFSaturation},
	{"R9", "Multi-service split: guaranteed VoIP slots vs. residual best-effort capacity", R9MultiService},
	{"R10", "Hidden-terminal duel: delivery and collisions by MAC", R10HiddenTerminal},
	{"R11", "Control-plane cost of schedule establishment: centralized vs. distributed", R11ControlPlane},
	{"R12", "Link-failure recovery: per-phase loss of the victim call", R12Failover},
	{"R13", "Mixed voice + best-effort on one TDMA data plane: priority queueing ablation", R13MixedService},
	{"R14", "Same schedule, measured throughput: WiFi emulation vs. native 802.16", R14NativeVsEmulated},
	{"R15", "Routing metric under lossy links: hop-count vs. ETX, with/without ARQ", R15RoutingMetric},
	{"R16", "Interference-model ablation: planned window vs. on-air violations", R16ConflictModel},
	{"R17", "Frame-duration trade-off: capacity vs. delay", R17FrameDuration},
	{"R18", "Partitioned scheduling at city scale: window and wall clock vs. zone size", R18PartitionedScale},
	{"R19", "Incremental admission serving: throughput and decision latency vs. scale", R19AdmissionServing},
	{"R20", "Sharded concurrent admission: serial vs. per-zone locked batched serving", R20ShardedServing},
	{"R21", "Multi-class service scheduling: UGS/rtPS deadlines with and without preemptive admission", R21ClassScheduling},
}

// IDs returns the experiment identifiers in canonical order (R1..R21).
func IDs() []string {
	out := make([]string, len(registry))
	for i, g := range registry {
		out[i] = g.name
	}
	return out
}

// Title returns the title of experiment id ("" when unknown).
func Title(id string) string {
	for _, g := range registry {
		if g.name == id {
			return g.title
		}
	}
	return ""
}

// ByID runs one experiment by its identifier (case-insensitive).
func ByID(id string) (*Table, error) {
	want := strings.ToUpper(id)
	for _, g := range registry {
		if g.name == want {
			t, err := g.fn()
			if err != nil {
				return nil, err
			}
			t.Title = g.title
			return t, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (want R1..%s)",
		id, registry[len(registry)-1].name)
}
