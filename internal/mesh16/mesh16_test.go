package mesh16

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDSCHRoundTrip(t *testing.T) {
	in := &DSCH{
		Sender: 5,
		Requests: []Request{
			{Peer: 6, Demand: 4, Persistence: 7},
		},
		Grants: []Grant{
			{Peer: 6, Start: 10, Length: 4, Direction: DirRx, Persistence: 7},
			{Peer: 8, Start: 20, Length: 2, Direction: DirTx, Confirm: true},
		},
		Availabilities: []Availability{
			{Start: 0, Length: 10, Direction: DirTx},
		},
	}
	wire, err := in.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalDSCH(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestDSCHValidation(t *testing.T) {
	bad := &DSCH{Sender: 1, Grants: []Grant{{Peer: 2, Start: 250, Length: 10, Direction: DirTx}}}
	if _, err := bad.Marshal(); !errors.Is(err, ErrBadField) {
		t.Errorf("range overflow: got %v, want ErrBadField", err)
	}
	bad = &DSCH{Sender: 1, Grants: []Grant{{Peer: 2, Start: 0, Length: 1}}}
	if _, err := bad.Marshal(); !errors.Is(err, ErrBadField) {
		t.Errorf("zero direction: got %v, want ErrBadField", err)
	}
	if _, err := UnmarshalDSCH([]byte{0, 1, 9}); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: got %v", err)
	}
}

// Property: DSCH messages round-trip for arbitrary valid field values.
func TestPropertyDSCHRoundTrip(t *testing.T) {
	prop := func(sender uint16, peer uint16, demand, start, length uint8, confirm bool) bool {
		if int(start)+int(length) > MaxMinislots || length == 0 {
			return true
		}
		in := &DSCH{
			Sender:   NodeID16(sender),
			Requests: []Request{{Peer: NodeID16(peer), Demand: demand}},
			Grants: []Grant{{Peer: NodeID16(peer), Start: start, Length: length,
				Direction: DirRx, Confirm: confirm}},
		}
		wire, err := in.Marshal()
		if err != nil {
			return false
		}
		out, err := UnmarshalDSCH(wire)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestElectionDeterministicAndAgreed(t *testing.T) {
	nodes := []NodeID16{1, 5, 9, 200}
	for op := uint32(0); op < 50; op++ {
		w := Winner(op, nodes)
		// Every node agrees on the winner via Wins.
		winners := 0
		for _, n := range nodes {
			if Wins(op, n, nodes) {
				winners++
				if n != w {
					t.Fatalf("op %d: Wins says %d, Winner says %d", op, n, w)
				}
			}
		}
		if winners != 1 {
			t.Fatalf("op %d: %d winners", op, winners)
		}
	}
}

func TestElectionFairness(t *testing.T) {
	nodes := []NodeID16{1, 2, 3, 4}
	wins := make(map[NodeID16]int)
	const rounds = 4000
	for op := uint32(0); op < rounds; op++ {
		wins[Winner(op, nodes)]++
	}
	for _, n := range nodes {
		share := float64(wins[n]) / rounds
		if share < 0.15 || share > 0.35 {
			t.Errorf("node %d win share %.3f, want ~0.25", n, share)
		}
	}
}

func TestSlotMapBasics(t *testing.T) {
	m, err := NewSlotMap(16)
	if err != nil {
		t.Fatal(err)
	}
	if m.Limit() != 16 || !m.RangeFree(0, 16) {
		t.Fatalf("fresh map: limit %d, free %t", m.Limit(), m.RangeFree(0, 16))
	}
	if err := m.Mark(4, 4); err != nil {
		t.Fatal(err)
	}
	if !m.Busy(4) || !m.Busy(7) || m.Busy(3) || m.Busy(8) {
		t.Error("mark wrong")
	}
	if m.RangeFree(2, 4) {
		t.Error("overlapping range reported free")
	}
	if !m.RangeFree(8, 8) {
		t.Error("free range reported busy")
	}
	if err := m.Clear(4, 4); err != nil {
		t.Fatal(err)
	}
	if !m.RangeFree(0, 16) {
		t.Error("clear wrong")
	}
	if err := m.Mark(15, 2); err == nil {
		t.Error("overflow mark accepted")
	}
	if _, err := NewSlotMap(1000); err == nil {
		t.Error("oversized map accepted")
	}
}
