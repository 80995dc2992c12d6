package mesh16

import "fmt"

// SlotMap tracks minislot occupancy over one frame.
type SlotMap struct {
	busy [MaxMinislots]bool
	// limit restricts allocations to [0, limit); 0 means MaxMinislots.
	limit int
}

// NewSlotMap returns a map over the first limit minislots (0 = all 256).
func NewSlotMap(limit int) (*SlotMap, error) {
	if limit < 0 || limit > MaxMinislots {
		return nil, fmt.Errorf("%w: slot map limit %d", ErrBadField, limit)
	}
	if limit == 0 {
		limit = MaxMinislots
	}
	return &SlotMap{limit: limit}, nil
}

// Limit returns the number of addressable minislots.
func (s *SlotMap) Limit() int { return s.limit }

// Busy reports whether slot i is occupied.
func (s *SlotMap) Busy(i int) bool {
	return i >= 0 && i < s.limit && s.busy[i]
}

// Mark occupies the range [start, start+length).
func (s *SlotMap) Mark(start, length int) error {
	if start < 0 || length <= 0 || start+length > s.limit {
		return fmt.Errorf("%w: mark [%d, %d) in %d slots", ErrBadField, start, start+length, s.limit)
	}
	for i := start; i < start+length; i++ {
		s.busy[i] = true
	}
	return nil
}

// Clear frees the range [start, start+length).
func (s *SlotMap) Clear(start, length int) error {
	if start < 0 || length <= 0 || start+length > s.limit {
		return fmt.Errorf("%w: clear [%d, %d) in %d slots", ErrBadField, start, start+length, s.limit)
	}
	for i := start; i < start+length; i++ {
		s.busy[i] = false
	}
	return nil
}

// RangeFree reports whether [start, start+length) is entirely free.
func (s *SlotMap) RangeFree(start, length int) bool {
	if start < 0 || length <= 0 || start+length > s.limit {
		return false
	}
	for i := start; i < start+length; i++ {
		if s.busy[i] {
			return false
		}
	}
	return true
}
