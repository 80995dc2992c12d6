package tdma

import (
	"math/rand"
	"slices"
	"testing"

	"wimesh/internal/conflict"
	"wimesh/internal/topology"
)

// randomConflictGraph is a two-hop conflict graph over a seeded random disk
// mesh, wide enough that far-apart links are independent.
func randomConflictGraph(t *testing.T, seed int64) *conflict.Graph {
	t.Helper()
	net, err := topology.RandomDisk(10+int(seed%8), 700, 220, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shadow is the brute-force model the packing is checked against: a flat,
// unordered block list scanned slot by slot.
type shadow struct {
	g      *conflict.Graph
	blocks []Assignment
}

// free reports whether [s, s+d) of link l overlaps no block of l or of a
// conflicting link, among the shadow's blocks and the pending ones.
func (sh *shadow) free(l topology.LinkID, s, d int, pending []Assignment) bool {
	for _, list := range [][]Assignment{sh.blocks, pending} {
		for _, b := range list {
			if (b.Link == l || sh.g.Conflicts(b.Link, l)) && b.Start < s+d && s < b.End() {
				return false
			}
		}
	}
	return true
}

// firstFit is the earliest-start scan: every start from 0 up, in order.
func (sh *shadow) firstFit(l topology.LinkID, d, limit int, pending []Assignment) int {
	for s := 0; s+d <= limit; s++ {
		if sh.free(l, s, d, pending) {
			return s
		}
	}
	return -1
}

// firstGap is the earliest free slot below limit and the free run after it.
func (sh *shadow) firstGap(l topology.LinkID, limit int, pending []Assignment) (int, int) {
	for s := 0; s < limit; s++ {
		if sh.free(l, s, 1, pending) {
			n := 1
			for s+n < limit && sh.free(l, s+n, 1, pending) {
				n++
			}
			return s, n
		}
	}
	return -1, 0
}

// trim is the flat-list release the schedule used to carry (TrimLink): take
// n slots off link l's highest-start blocks, dropping emptied ones.
func (sh *shadow) trim(l topology.LinkID, n int) {
	for n > 0 {
		best := -1
		for i, b := range sh.blocks {
			if b.Link == l && (best < 0 || b.Start > sh.blocks[best].Start) {
				best = i
			}
		}
		if b := &sh.blocks[best]; b.Length > n {
			b.Length -= n
			n = 0
		} else {
			n -= b.Length
			sh.blocks = slices.Delete(sh.blocks, best, best+1)
		}
	}
}

func (sh *shadow) slots(l topology.LinkID, deadline int) (total, covered int) {
	for _, b := range sh.blocks {
		if b.Link == l {
			total += b.Length
			covered += max(0, min(b.End(), deadline)-b.Start)
		}
	}
	return total, covered
}

func (sh *shadow) makespan(links []topology.LinkID) int {
	end := 0
	for _, b := range sh.blocks {
		if links == nil || slices.Contains(links, b.Link) {
			end = max(end, b.End())
		}
	}
	return end
}

func byLinkStart(a, b Assignment) int {
	if a.Link != b.Link {
		return int(a.Link - b.Link)
	}
	return a.Start - b.Start
}

// TestPackingMatchesBruteForce drives a packing and the brute-force shadow
// through the same seeded sequence of placements, releases and cuts over
// random conflict graphs: every FirstFit, FirstGap and Free answer, and the
// derived Makespan, End, Covered and Assignments, must agree throughout.
func TestPackingMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := randomConflictGraph(t, seed)
		rng := rand.New(rand.NewSource(seed))
		pk, sh := NewPacking(g), &shadow{g: g}
		nl := g.NumVertices()
		for step := 0; step < 400; step++ {
			l := topology.LinkID(rng.Intn(nl))
			d, limit := 1+rng.Intn(4), 6+rng.Intn(30)
			var pending []Assignment
			for range rng.Intn(3) {
				pending = append(pending, Assignment{Link: topology.LinkID(rng.Intn(nl)), Start: rng.Intn(24), Length: 1 + rng.Intn(3)})
			}
			got, want := pk.FirstFit(l, d, limit, pending), sh.firstFit(l, d, limit, pending)
			if got != want {
				t.Fatalf("seed %d step %d: FirstFit(link %d, %d slots, limit %d) = %d, brute force %d", seed, step, l, d, limit, got, want)
			}
			gs, gn := pk.FirstGap(l, limit, pending)
			if ws, wn := sh.firstGap(l, limit, pending); gs != ws || gn != wn {
				t.Fatalf("seed %d step %d: FirstGap(link %d, limit %d) = (%d,%d), brute force (%d,%d)", seed, step, l, limit, gs, gn, ws, wn)
			}
			probe := Assignment{Link: l, Start: rng.Intn(24), Length: d}
			if got, want := pk.Free(probe), sh.free(l, probe.Start, d, nil); got != want {
				t.Fatalf("seed %d step %d: Free(%v) = %v, brute force %v", seed, step, probe, got, want)
			}
			switch op := rng.Intn(10); {
			case op < 6:
				if s := sh.firstFit(l, d, limit, nil); s >= 0 {
					a := Assignment{Link: l, Start: s, Length: d}
					pk.Add(a)
					sh.blocks = append(sh.blocks, a)
				}
			case op < 9:
				total, _ := sh.slots(l, 1<<30)
				n := 1 + rng.Intn(4)
				err := pk.Trim(l, n)
				if (err == nil) != (n <= total) {
					t.Fatalf("seed %d step %d: Trim(link %d, %d) of %d slots: err = %v", seed, step, l, n, total, err)
				}
				if err == nil {
					sh.trim(l, n)
				}
			default:
				links := []topology.LinkID{l, topology.LinkID(rng.Intn(nl))}
				cut := pk.Cut(links)
				var want []Assignment
				sh.blocks = slices.DeleteFunc(sh.blocks, func(b Assignment) bool {
					if slices.Contains(links, b.Link) {
						want = append(want, b)
						return true
					}
					return false
				})
				slices.SortFunc(cut, byLinkStart)
				slices.SortFunc(want, byLinkStart)
				if !slices.Equal(cut, want) {
					t.Fatalf("seed %d step %d: Cut(%v) = %v, want %v", seed, step, links, cut, want)
				}
			}
			if got, want := pk.Makespan(), sh.makespan(nil); got != want {
				t.Fatalf("seed %d step %d: Makespan = %d, brute force %d", seed, step, got, want)
			}
			zone := []topology.LinkID{l, topology.LinkID(rng.Intn(nl))}
			if got, want := pk.End(zone), sh.makespan(zone); got != want {
				t.Fatalf("seed %d step %d: End(%v) = %d, brute force %d", seed, step, zone, got, want)
			}
			deadline := rng.Intn(30)
			if _, want := sh.slots(l, deadline); pk.Covered(l, deadline) != want {
				t.Fatalf("seed %d step %d: Covered(link %d, %d) = %d, brute force %d", seed, step, l, deadline, pk.Covered(l, deadline), want)
			}
		}
		want := slices.Clone(sh.blocks)
		slices.SortFunc(want, byLinkStart)
		if got := pk.Assignments(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Assignments = %v, want %v", seed, got, want)
		}
		re := NewPacking(g)
		re.Reset(want)
		if !slices.Equal(re.Assignments(), want) || re.Makespan() != pk.Makespan() {
			t.Fatalf("seed %d: Reset does not reproduce the layout", seed)
		}
	}
}

// TestPackingRepackNeverLater pins the argument compaction rests on: a
// conflict-free layout — here first-fit placements fragmented by releases —
// re-packed in ByStart order into an empty packing moves no block later, so
// the makespan cannot grow, and stays conflict-free.
func TestPackingRepackNeverLater(t *testing.T) {
	const frame = 64
	for seed := int64(1); seed <= 20; seed++ {
		g := randomConflictGraph(t, seed)
		rng := rand.New(rand.NewSource(seed))
		pk := NewPacking(g)
		nl := g.NumVertices()
		for range 6 * nl {
			l, d := topology.LinkID(rng.Intn(nl)), 1+rng.Intn(4)
			if s := pk.FirstFit(l, d, frame, nil); s >= 0 {
				pk.Add(Assignment{Link: l, Start: s, Length: d})
			}
			if rng.Intn(3) == 0 {
				_ = pk.Trim(topology.LinkID(rng.Intn(nl)), 1+rng.Intn(3)) // fails on links holding less
			}
		}
		old := pk.Assignments()
		slices.SortFunc(old, ByStart)
		blocks := slices.Clone(old)
		re := NewPacking(g)
		if fits := re.Repack(blocks, func(topology.LinkID, int) int { return frame }); fits != len(blocks) {
			t.Fatalf("seed %d: block %d of %d does not fit back", seed, fits, len(blocks))
		}
		moved := 0
		for i, b := range blocks {
			if b.Link != old[i].Link || b.Length != old[i].Length || b.Start > old[i].Start {
				t.Fatalf("seed %d: block %v re-packed to %v", seed, old[i], b)
			}
			if b.Start < old[i].Start {
				moved++
			}
		}
		if re.Makespan() > pk.Makespan() {
			t.Fatalf("seed %d: makespan grew %d -> %d", seed, pk.Makespan(), re.Makespan())
		}
		s := &Schedule{Config: FrameConfig{DataSlots: frame}, Assignments: re.Assignments()}
		if err := s.Validate(g); err != nil {
			t.Fatalf("seed %d: re-packed layout: %v", seed, err)
		}
		if seed == 1 && moved == 0 {
			t.Fatal("seed 1: no block moved earlier; the releases left nothing to compact")
		}
	}
}

// conflictEndFirstFit is the partitioned planner's former stitch search, kept
// as an oracle: try a start, jump to the largest end among the conflicting
// intervals overlapping it, repeat.
func conflictEndFirstFit(g *conflict.Graph, ivals [][][2]int, l topology.LinkID, d, frameSlots int) int {
	start := 0
	for start+d <= frameSlots {
		end := -1
		g.VisitNeighbors(l, func(nb topology.LinkID) bool {
			for _, iv := range ivals[nb] {
				if iv[0] < start+d && start < iv[1] && iv[1] > end {
					end = iv[1]
				}
			}
			return true
		})
		if end < 0 {
			return start
		}
		start = end
	}
	return -1
}

// mapScanFirstFit is the greedy colorer's former search, kept as an oracle:
// the same jump, over a map of one placed interval per link.
func mapScanFirstFit(g *conflict.Graph, placedBy map[topology.LinkID][2]int, l topology.LinkID, d, frameSlots int) int {
	start := 0
	for start+d <= frameSlots {
		conflictEnd := -1
		for other, iv := range placedBy {
			if other != l && g.Conflicts(l, other) && start < iv[1] && iv[0] < start+d {
				conflictEnd = max(conflictEnd, iv[1])
			}
		}
		if conflictEnd < 0 {
			return start
		}
		start = conflictEnd
	}
	return -1
}

// TestDifferentialPackingFirstFit places every link of random conflict graphs
// once, in random order with random demands and sometimes off its earliest
// start, and requires Packing.FirstFit to return what the two searches it
// replaced return — the earliest conflict-free start is unique.
func TestDifferentialPackingFirstFit(t *testing.T) {
	const frame = 48
	for seed := int64(1); seed <= 25; seed++ {
		g := randomConflictGraph(t, seed)
		rng := rand.New(rand.NewSource(seed))
		nl := g.NumVertices()
		pk := NewPacking(g)
		ivals := make([][][2]int, nl)
		placedBy := make(map[topology.LinkID][2]int)
		misses := 0
		for _, i := range rng.Perm(nl) {
			l, d := topology.LinkID(i), 1+rng.Intn(5)
			got := pk.FirstFit(l, d, frame, nil)
			if a, b := conflictEndFirstFit(g, ivals, l, d, frame), mapScanFirstFit(g, placedBy, l, d, frame); got != a || got != b {
				t.Fatalf("seed %d link %d demand %d: Packing %d, conflictEnd loop %d, map scan %d", seed, l, d, got, a, b)
			}
			if got < 0 {
				misses++
				continue
			}
			// Leave a hole now and then so later links see fragmented layouts.
			if shifted := got + 1 + rng.Intn(3); rng.Intn(4) == 0 && shifted+d <= frame &&
				pk.Free(Assignment{Link: l, Start: shifted, Length: d}) {
				got = shifted
			}
			pk.Add(Assignment{Link: l, Start: got, Length: d})
			ivals[l] = append(ivals[l], [2]int{got, got + d})
			placedBy[l] = [2]int{got, got + d}
		}
		if misses == nl {
			t.Fatalf("seed %d: nothing fit", seed)
		}
	}
}

// TestPackingTrim covers the release-path mutator: trims come off the
// highest-start block first, empty blocks are dropped, other links are
// untouched, and a trim the link cannot cover changes nothing.
func TestPackingTrim(t *testing.T) {
	_, g := buildChainGraph(t)
	pk := NewPacking(g)
	pk.Reset([]Assignment{
		{Link: 2, Start: 0, Length: 3},
		{Link: 2, Start: 10, Length: 2},
		{Link: 4, Start: 3, Length: 1},
	})
	// Trim 3: consumes the [10,12) block entirely and one slot of [0,3).
	if err := pk.Trim(2, 3); err != nil {
		t.Fatal(err)
	}
	want := []Assignment{{Link: 2, Start: 0, Length: 2}, {Link: 4, Start: 3, Length: 1}}
	if got := pk.Assignments(); !slices.Equal(got, want) {
		t.Errorf("after trim: %v, want %v", got, want)
	}
	if got := pk.Makespan(); got != 4 {
		t.Errorf("Makespan after trim = %d, want 4", got)
	}
	for _, n := range []int{5, 0, -1} {
		if err := pk.Trim(2, n); err == nil {
			t.Errorf("Trim(2, %d) accepted", n)
		}
	}
	if got := pk.Assignments(); !slices.Equal(got, want) {
		t.Errorf("failed trims modified the packing: %v", got)
	}
}
