package tdma

import (
	"errors"
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
