package experiments

import (
	"strconv"
	"testing"
	"time"
)

// TestAdmitSmoke is the reduced R19 the `make admit-smoke` target runs under
// the race detector: a short serving run through both engine modes — one
// monolithic village mesh and one zoned city slice — exercising the full
// admit/release path (workload generation, tier repair, zone stitching).
func TestAdmitSmoke(t *testing.T) {
	points := []r19Point{
		{nodes: 24, calls: 120, zoned: false, rate: 16, holding: 300 * time.Millisecond, maxWin: 32},
		{nodes: 200, calls: 80, zoned: true, rate: 30, holding: 500 * time.Millisecond, maxWin: 32},
	}
	tab, err := r19Table("R19S", points)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		offered, err := strconv.Atoi(row[3])
		if err != nil || offered <= 0 {
			t.Errorf("offered = %q, want positive int", row[3])
		}
		admitted, err := strconv.Atoi(row[4])
		if err != nil || admitted <= 0 {
			t.Errorf("admitted = %q, want positive int", row[4])
		}
		rejected, err := strconv.Atoi(row[5])
		if err != nil || rejected < 0 {
			t.Errorf("rejected = %q, want non-negative int", row[5])
		}
		fast, _ := strconv.Atoi(row[6])
		witness, _ := strconv.Atoi(row[7])
		warm, _ := strconv.Atoi(row[8])
		cold, _ := strconv.Atoi(row[9])
		if fast+witness+warm+cold != offered {
			t.Errorf("tier mix %d+%d+%d+%d != offered %d", fast, witness, warm, cold, offered)
		}
	}
	// The monolithic village run must leave the fastpath (its whole point) —
	// at this load the path-major witness decides every such call — and the
	// fastpath must absorb a share of the churn.
	witness, _ := strconv.Atoi(tab.Rows[0][7])
	fast, _ := strconv.Atoi(tab.Rows[0][6])
	if witness == 0 || fast == 0 {
		t.Errorf("village row never hit witness (%d) or fast (%d) tier", witness, fast)
	}

	// A 12-slot cap sends enough calls past the witness that the branch and
	// bound decides some of them. Its node budget alone bounds each solve, so
	// two runs agree in every cell but the host-time ones.
	for i := range points {
		points[i].maxWin = 12
	}
	var runs [2]string
	for i := range runs {
		tab, err := r19Table("R19S", points)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = renderGolden(t, tab)
	}
	if runs[0] != runs[1] {
		t.Errorf("two runs at a 12-slot cap differ (-first +second):\n%s", lineDiff(runs[0], runs[1]))
	}
}
