package mesh16

import (
	"bytes"
	"testing"
)

// The wire decoders face attacker-controlled radio bytes; fuzz them for
// panics and check that anything they accept re-encodes to the same bytes
// (canonical round trip).

func FuzzUnmarshalDSCH(f *testing.F) {
	seed := &DSCH{
		Sender:   7,
		Requests: []Request{{Peer: 8, Demand: 3, Persistence: 7}},
		Grants: []Grant{
			{Peer: 8, Start: 4, Length: 3, Direction: DirRx, Persistence: 7},
			{Peer: 9, Start: 10, Length: 1, Direction: DirTx, Confirm: true},
			{Peer: 9, Start: 12, Length: 1, Direction: DirRx, Revoke: true},
		},
		Availabilities: []Availability{{Start: 0, Length: 32, Direction: DirTx}},
	}
	wire, err := seed.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalDSCH(data)
		if err != nil {
			return
		}
		re, err := m.Marshal()
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		m2, err := UnmarshalDSCH(re)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		re2, err := m2.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encoding not canonical:\n %x\n %x", re, re2)
		}
	})
}

func FuzzUnmarshalCSCH(f *testing.F) {
	seed := &CSCH{Sender: 3, Type: CSCHRequest,
		Entries: []CSCHFlowEntry{{Link: 5, Demand: 2}}}
	wire, err := seed.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalCSCH(data)
		if err != nil {
			return
		}
		re, err := m.Marshal()
		if err != nil {
			t.Fatalf("decoded CSCH failed to re-encode: %v", err)
		}
		m2, err := UnmarshalCSCH(re)
		if err != nil {
			t.Fatalf("re-encoded CSCH failed to decode: %v", err)
		}
		re2, err := m2.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encoding not canonical:\n %x\n %x", re, re2)
		}
	})
}
