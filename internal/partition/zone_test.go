package partition

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"wimesh/internal/conflict"
	"wimesh/internal/milp"
	"wimesh/internal/schedule"
	"wimesh/internal/topology"
)

// TestGreedyZoneSolveAllocs: a zone is solved on its own induced graph, so a
// greedy SolveZone on a small zone of the 1 000-node benchmark city (its
// 2 400 m disk, 130 m range) allocates for the zone, not for the city's
// 8 000-odd links: under 64 KiB by TotalAlloc, where one city-sized packing
// index alone is about 200 KB. The blocks come back in city IDs, one per
// demanded link of the zone.
func TestGreedyZoneSolveAllocs(t *testing.T) {
	net, err := topology.RandomDisk(1000, 2400, 130, 42)
	if err != nil {
		t.Fatal(err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatal(err)
	}
	p := &schedule.Problem{Graph: g, Demand: make(map[topology.LinkID]int), FrameSlots: 256}
	for l := range topology.LinkID(g.NumVertices()) {
		if l%3 == 0 {
			p.Demand[l] = 1 + int(l)%2
		}
	}
	dec, err := Decompose(p, 260)
	if err != nil {
		t.Fatal(err)
	}
	zi := slices.IndexFunc(dec.Zones, func(z Zone) bool { return len(z.Links) >= 20 && len(z.Links) <= 40 })
	if zi < 0 {
		t.Fatal("no zone of 20-40 demanded links")
	}
	zp := ZoneProblem(p, dec, zi)
	if zp.Graph.NumVertices() != len(dec.Zones[zi].Links) {
		t.Fatalf("zone problem graph has %d links, zone %d", zp.Graph.NumVertices(), len(dec.Zones[zi].Links))
	}
	models := NewModels(dec, frame(p.FrameSlots))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sol, err := models.SolveZone(zi, zp, 0, 0, 0, -1, milp.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Greedy {
		t.Fatal("a zone past a gate of -1 pairs was not packed greedily")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("greedy SolveZone on %d links allocated %d bytes, want < 64 KiB", len(dec.Zones[zi].Links), got)
	}
	var links []topology.LinkID
	for _, a := range sol.Blocks {
		links = append(links, a.Link)
		if a.Length != p.Demand[a.Link] {
			t.Errorf("block %v: length %d, city demand %d", a, a.Length, p.Demand[a.Link])
		}
	}
	slices.Sort(links)
	if !slices.Equal(links, dec.Zones[zi].Links) {
		t.Errorf("blocks cover links %v, zone holds %v", links, dec.Zones[zi].Links)
	}
}

// TestZoneErrorsNameCityLinks: a zone solve fails naming the city link,
// although it ran on zone-local IDs.
func TestZoneErrorsNameCityLinks(t *testing.T) {
	net, err := topology.Chain(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatal(err)
	}
	p := &schedule.Problem{Graph: g, Demand: make(map[topology.LinkID]int), FrameSlots: 8}
	for _, l := range net.Links() {
		p.Demand[l.ID] = 4
	}
	dec, err := Decompose(p, 250)
	if err != nil {
		t.Fatal(err)
	}
	zi := len(dec.Zones) - 1
	z := dec.Zones[zi]
	if z.Links[0] == 0 {
		t.Fatalf("last zone starts at link 0; want a zone whose local IDs differ from city IDs")
	}
	_, err = NewModels(dec, frame(8)).SolveZone(zi, ZoneProblem(p, dec, zi), 0, 0, 0, -1, milp.Options{})
	if !errors.Is(err, schedule.ErrInfeasible) {
		t.Fatalf("got %v, want infeasible", err)
	}
	named := false
	for _, l := range z.Links {
		named = named || strings.Contains(err.Error(), fmt.Sprintf("link %d ", l))
	}
	if !named {
		t.Fatalf("error %q names no city link of zone %v", err, z.Links)
	}
}
