// Package mesh16 implements the IEEE 802.16 mesh control plane that the
// emulation carries in the frame's control subframe: the MSH-DSCH
// (distributed schedule) and MSH-CSCH (centralized schedule) messages with
// their wire encoding, the mesh election algorithm that arbitrates control-slot
// access, and the three-way request/grant/confirm handshake of distributed
// (uncoordinated) minislot scheduling.
//
// Centralized scheduling (internal/schedule) computes optimal schedules at
// the gateway; the distributed scheduler here lets nodes negotiate minislot
// ranges with their neighbors using only local state, the 802.16 mesh
// fallback this system also emulates over WiFi hardware.
package mesh16

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// NodeID16 is a 16-bit mesh node identifier.
type NodeID16 uint16

// Direction of a minislot reservation relative to the message sender.
type Direction uint8

// Reservation directions.
const (
	DirTx Direction = iota + 1 // sender transmits
	DirRx                      // sender receives
)

// Wire limits.
const (
	// MaxMinislots is the number of minislots in the data subframe
	// addressed by schedule messages.
	MaxMinislots = 256
	// maxEntries bounds repeated message elements (wire sanity).
	maxEntries = 64
)

// Encoding errors.
var (
	ErrTruncated = errors.New("mesh16: truncated message")
	ErrBadField  = errors.New("mesh16: bad field")
)

// Request asks a peer for minislots.
type Request struct {
	// Peer is the intended granter (the link's receiver).
	Peer NodeID16
	// Demand is the number of minislots requested per frame.
	Demand uint8
	// Persistence encodes for how many frames (0x7 = until canceled).
	Persistence uint8
}

// Grant allocates a minislot range. A grant echoed by the original
// requester (Confirm=true) completes the three-way handshake. A grant with
// Revoke set cancels a previously granted range: the granter learned — via
// an overheard reservation — that the range now conflicts in its
// neighborhood, and the requester must release it and renegotiate.
type Grant struct {
	// Peer is the counterpart node.
	Peer NodeID16
	// Start and Length delimit the minislot range [Start, Start+Length).
	Start  uint8
	Length uint8
	// Direction is relative to the message sender.
	Direction Direction
	// Confirm marks the third leg of the handshake.
	Confirm bool
	// Revoke cancels the range (see above). Confirm and Revoke are
	// mutually exclusive.
	Revoke bool
	// Persistence as in Request.
	Persistence uint8
}

// Availability advertises free minislots to neighbors.
type Availability struct {
	Start  uint8
	Length uint8
	// Direction the slots could be used in.
	Direction Direction
}

// DSCH is the MSH-DSCH distributed-scheduling message.
type DSCH struct {
	Sender         NodeID16
	Requests       []Request
	Grants         []Grant
	Availabilities []Availability
}

// --- wire encoding (big-endian, length-prefixed sections) ---

// Marshal encodes the DSCH.
func (m *DSCH) Marshal() ([]byte, error) {
	if len(m.Requests) > maxEntries || len(m.Grants) > maxEntries || len(m.Availabilities) > maxEntries {
		return nil, fmt.Errorf("%w: too many DSCH entries", ErrBadField)
	}
	for _, g := range m.Grants {
		if err := validateRange(g.Start, g.Length); err != nil {
			return nil, err
		}
		if g.Direction != DirTx && g.Direction != DirRx {
			return nil, fmt.Errorf("%w: grant direction %d", ErrBadField, g.Direction)
		}
	}
	for _, a := range m.Availabilities {
		if err := validateRange(a.Start, a.Length); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, 0, 5+4*len(m.Requests)+7*len(m.Grants)+3*len(m.Availabilities))
	buf = binary.BigEndian.AppendUint16(buf, uint16(m.Sender))
	buf = append(buf, uint8(len(m.Requests)), uint8(len(m.Grants)), uint8(len(m.Availabilities)))
	for _, r := range m.Requests {
		buf = binary.BigEndian.AppendUint16(buf, uint16(r.Peer))
		buf = append(buf, r.Demand, r.Persistence)
	}
	for _, g := range m.Grants {
		if g.Confirm && g.Revoke {
			return nil, fmt.Errorf("%w: grant both confirm and revoke", ErrBadField)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(g.Peer))
		flags := uint8(0)
		if g.Confirm {
			flags |= 1
		}
		if g.Revoke {
			flags |= 2
		}
		buf = append(buf, g.Start, g.Length, uint8(g.Direction), flags, g.Persistence)
	}
	for _, a := range m.Availabilities {
		buf = append(buf, a.Start, a.Length, uint8(a.Direction))
	}
	return buf, nil
}

// UnmarshalDSCH decodes a DSCH.
func UnmarshalDSCH(b []byte) (*DSCH, error) {
	if len(b) < 5 {
		return nil, fmt.Errorf("%w: DSCH header (%d bytes)", ErrTruncated, len(b))
	}
	m := &DSCH{Sender: NodeID16(binary.BigEndian.Uint16(b[0:2]))}
	nReq, nGrant, nAvail := int(b[2]), int(b[3]), int(b[4])
	b = b[5:]
	need := 4*nReq + 7*nGrant + 3*nAvail
	if len(b) < need {
		return nil, fmt.Errorf("%w: DSCH body (%d of %d bytes)", ErrTruncated, len(b), need)
	}
	for i := 0; i < nReq; i++ {
		m.Requests = append(m.Requests, Request{
			Peer:        NodeID16(binary.BigEndian.Uint16(b[0:2])),
			Demand:      b[2],
			Persistence: b[3],
		})
		b = b[4:]
	}
	for i := 0; i < nGrant; i++ {
		g := Grant{
			Peer:        NodeID16(binary.BigEndian.Uint16(b[0:2])),
			Start:       b[2],
			Length:      b[3],
			Direction:   Direction(b[4]),
			Confirm:     b[5]&1 != 0,
			Revoke:      b[5]&2 != 0,
			Persistence: b[6],
		}
		if g.Confirm && g.Revoke {
			return nil, fmt.Errorf("%w: grant both confirm and revoke", ErrBadField)
		}
		if g.Direction != DirTx && g.Direction != DirRx {
			return nil, fmt.Errorf("%w: grant direction %d", ErrBadField, g.Direction)
		}
		if err := validateRange(g.Start, g.Length); err != nil {
			return nil, err
		}
		m.Grants = append(m.Grants, g)
		b = b[7:]
	}
	for i := 0; i < nAvail; i++ {
		a := Availability{Start: b[0], Length: b[1], Direction: Direction(b[2])}
		if err := validateRange(a.Start, a.Length); err != nil {
			return nil, err
		}
		m.Availabilities = append(m.Availabilities, a)
		b = b[3:]
	}
	return m, nil
}

func validateRange(start, length uint8) error {
	if int(start)+int(length) > MaxMinislots {
		return fmt.Errorf("%w: minislot range [%d, %d) beyond %d",
			ErrBadField, start, int(start)+int(length), MaxMinislots)
	}
	return nil
}
