package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"wimesh/internal/topology"
	"wimesh/internal/voip"
)

// syntheticProber builds a prober over a pure verdict function, counting how
// many distinct call counts are actually probed.
func syntheticProber(capacity int, stop StopReason, probed *int) *prober {
	return newProber(
		func(k int, _ *topology.FlowSet) (probeOutcome, error) {
			if k <= capacity {
				return probeOutcome{pass: true, run: &RunResult{MinR: float64(100 - k)}}, nil
			}
			return probeOutcome{stop: stop}, nil
		},
		func(k int) (*topology.FlowSet, error) {
			*probed++
			return nil, nil
		})
}

func TestGallopSearchMatchesLinear(t *testing.T) {
	for _, maxCalls := range []int{1, 2, 5, 12, 40, 60} {
		for capacity := 0; capacity <= maxCalls+1; capacity++ {
			for _, stop := range []StopReason{StopQuality, StopSchedule} {
				var nLin, nGal int
				lin, err := linearScan(syntheticProber(capacity, stop, &nLin), maxCalls)
				if err != nil {
					t.Fatal(err)
				}
				gal, err := gallopSearch(syntheticProber(capacity, stop, &nGal), maxCalls)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lin, gal) {
					t.Fatalf("cap=%d max=%d stop=%s: linear %+v != gallop %+v",
						capacity, maxCalls, stop, lin, gal)
				}
				wantCalls := capacity
				if wantCalls > maxCalls {
					wantCalls = maxCalls
				}
				if gal.Calls != wantCalls {
					t.Fatalf("cap=%d max=%d: got %d calls", capacity, maxCalls, gal.Calls)
				}
				if capacity >= maxCalls && gal.StoppedBy != StopMaxCalls {
					t.Fatalf("cap=%d max=%d: stop=%s, want max-calls", capacity, maxCalls, gal.StoppedBy)
				}
			}
		}
	}
}

// TestGallopProbeCount pins the headline saving: O(log n) probes instead of
// O(n) on the linear walk.
func TestGallopProbeCount(t *testing.T) {
	for _, tc := range []struct {
		capacity, maxCalls, atMost int
	}{
		{16, 40, 12},
		{30, 40, 12},
		{39, 40, 13},
		{3, 60, 11},
	} {
		var nLin, nGal int
		if _, err := linearScan(syntheticProber(tc.capacity, StopQuality, &nLin), tc.maxCalls); err != nil {
			t.Fatal(err)
		}
		if _, err := gallopSearch(syntheticProber(tc.capacity, StopQuality, &nGal), tc.maxCalls); err != nil {
			t.Fatal(err)
		}
		if nGal > tc.atMost {
			t.Errorf("cap=%d max=%d: gallop probed %d counts, want <= %d", tc.capacity, tc.maxCalls, nGal, tc.atMost)
		}
		if nLin != tc.capacity+1 {
			t.Errorf("cap=%d: linear probed %d counts, want %d", tc.capacity, nLin, tc.capacity+1)
		}
		if nGal >= nLin && tc.capacity > 4 {
			t.Errorf("cap=%d: gallop (%d probes) no cheaper than linear (%d)", tc.capacity, nGal, nLin)
		}
	}
}

// TestScreenedSearchMatchesLinear sweeps screen predictions from exact to
// wildly wrong: the result must always equal the linear reference, because
// the screen only picks which full probes run first.
func TestScreenedSearchMatchesLinear(t *testing.T) {
	for _, screenCap := range []int{0, 3, 9, 20, 25} {
		for capacity := 0; capacity <= 21; capacity++ {
			var nFull, n int
			full := syntheticProber(capacity, StopQuality, &nFull)
			screen := syntheticProber(screenCap, StopQuality, new(int))
			got, err := screenedSearch(full, screen, 20)
			if err != nil {
				t.Fatal(err)
			}
			want, err := linearScan(syntheticProber(capacity, StopQuality, &n), 20)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("screen=%d cap=%d: screened %+v != linear %+v", screenCap, capacity, got, want)
			}
			if screenCap == capacity && capacity >= 1 && capacity < 20 && nFull > 2 {
				t.Errorf("exact screen cap=%d: %d full probes, want 2", capacity, nFull)
			}
		}
	}
}

func TestSearchErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	p := newProber(
		func(k int, _ *topology.FlowSet) (probeOutcome, error) {
			if k == 4 {
				return probeOutcome{}, boom
			}
			return probeOutcome{pass: true, run: &RunResult{}}, nil
		},
		func(int) (*topology.FlowSet, error) { return nil, nil })
	if _, err := gallopSearch(p, 40); !errors.Is(err, boom) {
		t.Errorf("gallop error = %v, want boom", err)
	}
	p2 := newProber(
		func(k int, _ *topology.FlowSet) (probeOutcome, error) {
			return probeOutcome{pass: true, run: &RunResult{}}, nil
		},
		func(k int) (*topology.FlowSet, error) {
			if k >= 2 {
				return nil, boom
			}
			return nil, nil
		})
	if _, err := linearScan(p2, 40); !errors.Is(err, boom) {
		t.Errorf("linear prepare error = %v, want boom", err)
	}
}

// TestCallSequenceMatchesGatewayCalls pins the incremental call builder to
// the from-scratch GatewayCalls construction at every prefix.
func TestCallSequenceMatchesGatewayCalls(t *testing.T) {
	topo, err := topology.Grid(3, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, downlink := range []bool{false, true} {
		downlink := downlink
		t.Run(fmt.Sprintf("downlink=%v", downlink), func(t *testing.T) {
			codec := voip.G711()
			seq, err := newCallSequence(topo, codec, 150*time.Millisecond, downlink)
			if err != nil {
				t.Fatal(err)
			}
			for n := 0; n <= 12; n++ {
				if err := seq.extend(n); err != nil {
					t.Fatal(err)
				}
				view := seq.view(n)
				ref, err := GatewayCalls(topo, n, codec, 150*time.Millisecond, downlink)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(view.Flows, ref.Flows) {
					t.Fatalf("n=%d: incremental view diverges from GatewayCalls", n)
				}
			}
		})
	}
}

// TestGatewayCallsCount: the call count arrives from flags and plan files; a
// negative one must be an error naming the value, not a slice-bounds panic.
func TestGatewayCallsCount(t *testing.T) {
	topo, err := topology.Grid(3, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n       int
		wantErr string
	}{
		{n: 0}, {n: 3}, {n: -1, wantErr: "-1"}, {n: -5, wantErr: "-5"},
	} {
		fs, err := GatewayCalls(topo, tc.n, voip.G711(), 150*time.Millisecond, false)
		switch {
		case tc.wantErr == "" && (err != nil || len(fs.Flows) != tc.n):
			t.Errorf("GatewayCalls(%d) = %v flows, err %v", tc.n, fs, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("GatewayCalls(%d): err = %v, want one naming the count", tc.n, err)
		}
	}
}

func TestCapacityMaxCallsBelowOne(t *testing.T) {
	sys := chainSystem(t, 4)
	res, err := sys.VoIPCapacityTDMA(CapacityConfig{MaxCalls: -3, Run: RunConfig{Duration: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls != 0 || res.StoppedBy != StopMaxCalls || res.LastGood != nil {
		t.Errorf("negative MaxCalls: %+v", res)
	}
}
