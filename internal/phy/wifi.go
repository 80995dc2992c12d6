// Package phy models the physical-layer timing of IEEE 802.11 (WiFi) and
// IEEE 802.16 WirelessMAN-OFDM (WiMAX) radios.
//
// The TDMA-over-WiFi emulation argument is entirely about timing: how long a
// frame occupies the air, how much of a TDMA slot is lost to preambles,
// interframe spaces and guard intervals, and how this compares to the native
// 802.16 OFDM minislot structure. This package provides those numbers from
// the standards' constants.
package phy

import (
	"fmt"
	"math"
	"time"
)

// WiFiPHY holds the MAC/PHY timing constants of one 802.11 variant.
type WiFiPHY struct {
	Name string
	// SlotTime is the MAC slot time (backoff granularity).
	SlotTime time.Duration
	// SIFS is the short interframe space.
	SIFS time.Duration
	// PreambleHeader is the PLCP preamble + header duration prepended to
	// every transmission.
	PreambleHeader time.Duration
	// CWMin and CWMax bound the DCF contention window.
	CWMin, CWMax int
	// RatesBps lists the supported data rates.
	RatesBps []float64
	// BasicRateBps is the control-frame (ACK) rate.
	BasicRateBps float64
}

// MAC-layer frame overheads (bytes).
const (
	// MACHeaderBytes is the 802.11 data MAC header (24) plus FCS (4).
	MACHeaderBytes = 28
	// ACKFrameBytes is the 802.11 ACK frame size.
	ACKFrameBytes = 14
	// RTSFrameBytes is the 802.11 RTS frame size.
	RTSFrameBytes = 20
	// CTSFrameBytes is the 802.11 CTS frame size.
	CTSFrameBytes = 14
	// SNAPLLCBytes is the LLC/SNAP encapsulation added to IP payloads.
	SNAPLLCBytes = 8
)

// IEEE80211b returns the 802.11b DSSS PHY (long preamble). This is the
// radio assumed by the paper-era evaluation: 11 Mb/s data, 1 Mb/s basic
// rate, 192 us PLCP.
func IEEE80211b() WiFiPHY {
	return WiFiPHY{
		Name:           "802.11b",
		SlotTime:       20 * time.Microsecond,
		SIFS:           10 * time.Microsecond,
		PreambleHeader: 192 * time.Microsecond,
		CWMin:          31,
		CWMax:          1023,
		RatesBps:       []float64{1e6, 2e6, 5.5e6, 11e6},
		BasicRateBps:   1e6,
	}
}

// DIFS returns the DCF interframe space: SIFS + 2 slots.
func (p WiFiPHY) DIFS() time.Duration {
	return p.SIFS + 2*p.SlotTime
}

// SupportsRate reports whether rateBps is a valid data rate for the PHY.
func (p WiFiPHY) SupportsRate(rateBps float64) bool {
	for _, r := range p.RatesBps {
		if r == rateBps {
			return true
		}
	}
	return false
}

// TxTime returns the airtime of a frame with the given MAC-layer size (MAC
// header + payload + FCS) at rateBps: the preamble plus the bit-exact DSSS
// payload time.
func (p WiFiPHY) TxTime(frameBytes int, rateBps float64) (time.Duration, error) {
	if frameBytes < 0 {
		return 0, fmt.Errorf("phy: negative frame size %d", frameBytes)
	}
	if rateBps <= 0 {
		return 0, fmt.Errorf("phy: non-positive rate %g", rateBps)
	}
	bits := float64(8 * frameBytes)
	payload := time.Duration(math.Ceil(bits/rateBps*1e9)) * time.Nanosecond
	return p.PreambleHeader + payload, nil
}

// DataFrameTime returns the airtime of a data frame carrying payloadBytes of
// MSDU payload (LLC/SNAP + MAC header + FCS added) at rateBps.
func (p WiFiPHY) DataFrameTime(payloadBytes int, rateBps float64) (time.Duration, error) {
	return p.TxTime(payloadBytes+SNAPLLCBytes+MACHeaderBytes, rateBps)
}

// ACKTime returns the airtime of an ACK at the basic rate.
func (p WiFiPHY) ACKTime() time.Duration {
	t, err := p.TxTime(ACKFrameBytes, p.BasicRateBps)
	if err != nil {
		// BasicRateBps is always positive for the provided PHYs.
		return 0
	}
	return t
}

// DataExchangeTime returns the total channel time of one acknowledged data
// transmission: DATA + SIFS + ACK.
func (p WiFiPHY) DataExchangeTime(payloadBytes int, rateBps float64) (time.Duration, error) {
	d, err := p.DataFrameTime(payloadBytes, rateBps)
	if err != nil {
		return 0, err
	}
	return d + p.SIFS + p.ACKTime(), nil
}

// RTSCTSOverhead returns the extra channel time of the RTS/CTS handshake:
// RTS + SIFS + CTS + SIFS, control frames at the basic rate.
func (p WiFiPHY) RTSCTSOverhead() time.Duration {
	rts, err := p.TxTime(RTSFrameBytes, p.BasicRateBps)
	if err != nil {
		return 0
	}
	cts, err := p.TxTime(CTSFrameBytes, p.BasicRateBps)
	if err != nil {
		return 0
	}
	return rts + p.SIFS + cts + p.SIFS
}

// ProtectedExchangeTime returns the total channel time of an RTS/CTS
// protected acknowledged transmission.
func (p WiFiPHY) ProtectedExchangeTime(payloadBytes int, rateBps float64) (time.Duration, error) {
	d, err := p.DataExchangeTime(payloadBytes, rateBps)
	if err != nil {
		return 0, err
	}
	return p.RTSCTSOverhead() + d, nil
}
