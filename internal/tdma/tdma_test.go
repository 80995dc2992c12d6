package tdma

import (
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"wimesh/internal/conflict"
	"wimesh/internal/topology"
)

func TestFrameConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  FrameConfig
		ok   bool
	}{
		{"wimax default", DefaultWiMAXFrame(), true},
		{"emulation default", DefaultEmulationFrame(), true},
		{"zero duration", FrameConfig{DataSlots: 4}, false},
		{"zero slots", FrameConfig{FrameDuration: time.Millisecond}, false},
		{"control eats frame", FrameConfig{
			FrameDuration: time.Millisecond, DataSlots: 4,
			ControlSlots: 10, ControlSlotDuration: time.Millisecond,
		}, false},
		{"control without duration", FrameConfig{
			FrameDuration: time.Millisecond, DataSlots: 4, ControlSlots: 2,
		}, false},
		{"negative control", FrameConfig{
			FrameDuration: time.Millisecond, DataSlots: 4, ControlSlots: -1,
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%t", err, tt.ok)
			}
			if err != nil && !errors.Is(err, ErrBadFrameConfig) {
				t.Errorf("error %v not wrapped in ErrBadFrameConfig", err)
			}
		})
	}
}

func TestFrameArithmetic(t *testing.T) {
	cfg := DefaultWiMAXFrame()
	if got := cfg.ControlSubframe(); got != 7*77*time.Microsecond {
		t.Errorf("ControlSubframe = %v", got)
	}
	data := cfg.FrameDuration - cfg.ControlSubframe()
	if got := cfg.DataSubframe(); got != data {
		t.Errorf("DataSubframe = %v, want %v", got, data)
	}
	if got := cfg.SlotDuration(); got != data/256 {
		t.Errorf("SlotDuration = %v, want %v", got, data/256)
	}
	s0, err := cfg.SlotStart(0)
	if err != nil {
		t.Fatal(err)
	}
	if s0 != cfg.ControlSubframe() {
		t.Errorf("SlotStart(0) = %v, want %v", s0, cfg.ControlSubframe())
	}
	if _, err := cfg.SlotStart(256); err == nil {
		t.Error("SlotStart(256) accepted")
	}
	if _, err := cfg.SlotStart(-1); err == nil {
		t.Error("SlotStart(-1) accepted")
	}
}

func TestFrameOfTime(t *testing.T) {
	cfg := DefaultEmulationFrame() // 20 ms
	tests := []struct {
		t          time.Duration
		wantFrame  int64
		wantOffset time.Duration
	}{
		{0, 0, 0},
		{19 * time.Millisecond, 0, 19 * time.Millisecond},
		{20 * time.Millisecond, 1, 0},
		{45 * time.Millisecond, 2, 5 * time.Millisecond},
		{-5 * time.Millisecond, -1, 15 * time.Millisecond},
	}
	for _, tt := range tests {
		f, off := cfg.FrameOfTime(tt.t)
		if f != tt.wantFrame || off != tt.wantOffset {
			t.Errorf("FrameOfTime(%v) = (%d, %v), want (%d, %v)",
				tt.t, f, off, tt.wantFrame, tt.wantOffset)
		}
	}
}

func buildChainGraph(t *testing.T) (*topology.Network, *conflict.Graph) {
	t.Helper()
	net, err := topology.Chain(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	g, err := conflict.Build(net, conflict.Options{Model: conflict.ModelTwoHop})
	if err != nil {
		t.Fatal(err)
	}
	return net, g
}

func TestScheduleAddValidation(t *testing.T) {
	s, err := NewSchedule(DefaultEmulationFrame()) // 16 slots
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Assignment{Link: 0, Start: 0, Length: 4}); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := s.Add(Assignment{Link: 1, Start: 14, Length: 4}); !errors.Is(err, ErrBadAssignment) {
		t.Errorf("overflow assignment: got %v, want ErrBadAssignment", err)
	}
	if err := s.Add(Assignment{Link: 1, Start: -1, Length: 2}); !errors.Is(err, ErrBadAssignment) {
		t.Errorf("negative start: got %v", err)
	}
	if err := s.Add(Assignment{Link: 1, Start: 0, Length: 0}); !errors.Is(err, ErrBadAssignment) {
		t.Errorf("zero length: got %v", err)
	}
}

func TestNewScheduleRejectsBadConfig(t *testing.T) {
	if _, err := NewSchedule(FrameConfig{}); !errors.Is(err, ErrBadFrameConfig) {
		t.Errorf("got %v, want ErrBadFrameConfig", err)
	}
}

func TestScheduleValidateDetectsConflicts(t *testing.T) {
	net, g := buildChainGraph(t)
	l01, err := net.FindLink(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	l12, err := net.FindLink(1, 2)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSchedule(DefaultEmulationFrame())
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping conflicting links.
	if err := s.Add(Assignment{Link: l01, Start: 0, Length: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Assignment{Link: l12, Start: 2, Length: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); !errors.Is(err, ErrConflict) {
		t.Errorf("Validate = %v, want ErrConflict", err)
	}

	// Disjoint slots: valid.
	s2, err := NewSchedule(DefaultEmulationFrame())
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Add(Assignment{Link: l01, Start: 0, Length: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Add(Assignment{Link: l12, Start: 4, Length: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Validate(g); err != nil {
		t.Errorf("Validate = %v, want nil", err)
	}
}

func TestScheduleValidateDuplicateLinkOverlap(t *testing.T) {
	_, g := buildChainGraph(t)
	s, err := NewSchedule(DefaultEmulationFrame())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Assignment{Link: 0, Start: 0, Length: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Assignment{Link: 0, Start: 2, Length: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g); !errors.Is(err, ErrConflict) {
		t.Errorf("self-overlap: got %v, want ErrConflict", err)
	}
}

func TestLinkSlotsAndUtilization(t *testing.T) {
	s, err := NewSchedule(DefaultEmulationFrame()) // 16 slots
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Assignment{Link: 3, Start: 0, Length: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Assignment{Link: 3, Start: 8, Length: 2}); err != nil {
		t.Fatal(err)
	}
	if got := s.LinkSlots(3); got != 6 {
		t.Errorf("LinkSlots = %d, want 6", got)
	}
	if got := s.LinkSlots(99); got != 0 {
		t.Errorf("LinkSlots(unassigned) = %d, want 0", got)
	}
	la := s.LinkAssignments(3)
	if len(la) != 2 || la[0].Start != 0 || la[1].Start != 8 {
		t.Errorf("LinkAssignments = %+v", la)
	}
}

func TestTxWindows(t *testing.T) {
	cfg := DefaultEmulationFrame()
	s, err := NewSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Assignment{Link: 0, Start: 1, Length: 2}); err != nil {
		t.Fatal(err)
	}
	ws, err := s.TxWindows(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 {
		t.Fatalf("windows = %d, want 1", len(ws))
	}
	wantStart := cfg.ControlSubframe() + cfg.SlotDuration()
	if ws[0][0] != wantStart || ws[0][1] != wantStart+2*cfg.SlotDuration() {
		t.Errorf("window = %v, want [%v, %v]", ws[0], wantStart, wantStart+2*cfg.SlotDuration())
	}
}

func TestScheduleString(t *testing.T) {
	s, err := NewSchedule(DefaultEmulationFrame())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Assignment{Link: 2, Start: 0, Length: 1}); err != nil {
		t.Fatal(err)
	}
	if out := s.String(); out == "" {
		t.Error("String() empty")
	}
}

// Property: for any set of in-bounds assignments, SlotOwners slot counts sum
// to the total assigned length.
func TestPropertySlotOwnersConsistent(t *testing.T) {
	prop := func(starts, lengths []uint8) bool {
		cfg := DefaultEmulationFrame()
		s, err := NewSchedule(cfg)
		if err != nil {
			return false
		}
		total := 0
		n := len(starts)
		if len(lengths) < n {
			n = len(lengths)
		}
		for i := 0; i < n; i++ {
			a := Assignment{
				Link:   topology.LinkID(i),
				Start:  int(starts[i]) % cfg.DataSlots,
				Length: int(lengths[i])%4 + 1,
			}
			if a.End() > cfg.DataSlots {
				continue
			}
			if err := s.Add(a); err != nil {
				return false
			}
			total += a.Length
		}
		sum := 0
		for _, owners := range s.SlotOwners() {
			sum += len(owners)
		}
		return sum == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// bruteConflictSlot is Validate's reference: a scan of every slot below
// slots for two assignments of conflicting links (or of one link) that both
// hold it. It returns the lowest such slot, or -1.
func bruteConflictSlot(g *conflict.Graph, as []Assignment, slots int) int {
	for slot := 0; slot < slots; slot++ {
		var links []topology.LinkID
		for _, a := range as {
			if a.Start <= slot && slot < a.End() {
				links = append(links, a.Link)
			}
		}
		for i := range links {
			for _, l := range links[i+1:] {
				if links[i] == l || g.Conflicts(links[i], l) {
					return slot
				}
			}
		}
	}
	return -1
}

// conflictSlot reads the slot a Validate error names, -1 for nil.
func conflictSlot(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return -1
	}
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("Validate = %v, want ErrConflict", err)
	}
	msg := err.Error()
	slot, perr := strconv.Atoi(msg[strings.LastIndex(msg, " ")+1:])
	if perr != nil {
		t.Fatalf("Validate error %q names no slot", msg)
	}
	return slot
}

// TestDifferentialValidateSweep checks the one-sweep Validate against the
// per-slot scan on random schedules: first-fit layouts (conflict-free) and
// the same layouts disturbed by duplicated blocks, extra blocks of links
// already placed (self-overlap among them) and random blocks. Both must
// agree on nil versus ErrConflict and on the slot reported.
func TestDifferentialValidateSweep(t *testing.T) {
	const frame = 48
	valid, invalid, late := 0, 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		g := randomConflictGraph(t, seed)
		rng := rand.New(rand.NewSource(seed))
		nl := g.NumVertices()
		for trial := 0; trial < 20; trial++ {
			pk := NewPacking(g)
			for range rng.Intn(2 * nl) {
				l, d := topology.LinkID(rng.Intn(nl)), 1+rng.Intn(4)
				if s := pk.FirstFit(l, d, frame, nil); s >= 0 {
					pk.Add(Assignment{Link: l, Start: s, Length: d})
				}
			}
			as := pk.Assignments()
			rng.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
			for range rng.Intn(3) {
				switch k := rng.Intn(3); {
				case k == 0 && len(as) > 0:
					as = append(as, as[rng.Intn(len(as))])
				case k == 1 && len(as) > 0:
					a := as[rng.Intn(len(as))]
					a.Start = rng.Intn(frame - a.Length + 1)
					as = append(as, a)
				default:
					d := 1 + rng.Intn(6)
					as = append(as, Assignment{Link: topology.LinkID(rng.Intn(nl)), Start: rng.Intn(frame - d + 1), Length: d})
				}
			}
			s := &Schedule{Config: FrameConfig{DataSlots: frame}, Assignments: as}
			got, want := conflictSlot(t, s.Validate(g)), bruteConflictSlot(g, as, frame)
			if got != want {
				t.Fatalf("seed %d trial %d: Validate reports slot %d, per-slot scan %d (-1: none)\n%v", seed, trial, got, want, as)
			}
			switch {
			case want < 0:
				valid++
			case want > 0:
				late++
				fallthrough
			default:
				invalid++
			}
		}
	}
	if valid == 0 || invalid == 0 || late == 0 {
		t.Fatalf("%d valid and %d conflicting schedules (%d past slot 0); want all > 0", valid, invalid, late)
	}
}

// TestShortfallReportsUnderServedLink checks the one-tally demand check the
// solvers and the partitioned planner run: blocks of one link add up, and a
// link given fewer slots than it demands — or none — is reported with what
// it got.
func TestShortfallReportsUnderServedLink(t *testing.T) {
	s := &Schedule{Config: DefaultEmulationFrame(), Assignments: []Assignment{
		{Link: 1, Start: 0, Length: 2}, {Link: 2, Start: 2, Length: 1}, {Link: 1, Start: 5, Length: 1},
	}}
	if l, got, short := s.Shortfall(map[topology.LinkID]int{1: 3, 2: 1}); short {
		t.Errorf("met demand: Shortfall = link %d got %d, want none", l, got)
	}
	for _, tc := range []struct {
		demand  map[topology.LinkID]int
		link    topology.LinkID
		gotWant int
	}{
		{map[topology.LinkID]int{1: 3, 2: 2}, 2, 1},
		{map[topology.LinkID]int{1: 4}, 1, 3},
		{map[topology.LinkID]int{1: 1, 7: 1}, 7, 0},
	} {
		if l, got, short := s.Shortfall(tc.demand); !short || l != tc.link || got != tc.gotWant {
			t.Errorf("Shortfall(%v) = (link %d, %d slots, %v), want (link %d, %d slots, true)", tc.demand, l, got, short, tc.link, tc.gotWant)
		}
	}
}
