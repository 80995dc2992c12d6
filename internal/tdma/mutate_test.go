package tdma

import (
	"testing"
	"time"
)

func mutateTestFrame(t *testing.T) FrameConfig {
	t.Helper()
	cfg := FrameConfig{
		FrameDuration: 10 * time.Millisecond,
		DataSlots:     32,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("test frame config invalid: %v", err)
	}
	return cfg
}

// TestInvalidateAfterInPlaceMutation is the stale-cache regression test: an
// in-place rewrite of an Assignment keeps len(Assignments) unchanged, so the
// length-fingerprint cache check cannot see it. Without Invalidate the
// memoized LinkAssignments/TxWindows would keep serving the pre-mutation
// values.
func TestInvalidateAfterInPlaceMutation(t *testing.T) {
	s, err := NewSchedule(mutateTestFrame(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Assignment{Link: 3, Start: 0, Length: 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Assignment{Link: 5, Start: 4, Length: 2}); err != nil {
		t.Fatal(err)
	}
	// Populate both caches.
	if got := s.LinkAssignments(3); len(got) != 1 || got[0].Length != 4 {
		t.Fatalf("pre-mutation LinkAssignments(3) = %v", got)
	}
	preWins, err := s.TxWindows(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(preWins) != 1 {
		t.Fatalf("pre-mutation TxWindows(3) = %v", preWins)
	}

	// In-place mutation: shrink link 3's block. Slice length is unchanged, so
	// without an explicit Invalidate the cache fingerprint still matches.
	for i := range s.Assignments {
		if s.Assignments[i].Link == 3 {
			s.Assignments[i].Length = 1
		}
	}
	s.Invalidate()

	if got := s.LinkAssignments(3); len(got) != 1 || got[0].Length != 1 {
		t.Errorf("post-mutation LinkAssignments(3) = %v, want single block of length 1", got)
	}
	wins, err := s.TxWindows(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 1 || wins[0][1]-wins[0][0] == preWins[0][1]-preWins[0][0] {
		t.Errorf("post-mutation TxWindows(3) = %v, still the pre-mutation width", wins)
	}
	if got := s.LinkSlots(3); got != 1 {
		t.Errorf("LinkSlots(3) = %d, want 1", got)
	}
}
