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
	// SymbolTime is the OFDM symbol duration (0 for DSSS PHYs, where
	// airtime is bit-exact rather than symbol-quantized).
	SymbolTime time.Duration
	// ServiceTailBits are the OFDM SERVICE (16) + tail (6) bits included
	// in the first/last symbols (0 for DSSS).
	ServiceTailBits int
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

// IEEE80211a returns the 802.11a OFDM PHY (5 GHz): 20 us preamble, 4 us
// symbols, 6-54 Mb/s.
func IEEE80211a() WiFiPHY {
	return WiFiPHY{
		Name:            "802.11a",
		SlotTime:        9 * time.Microsecond,
		SIFS:            16 * time.Microsecond,
		PreambleHeader:  20 * time.Microsecond,
		SymbolTime:      4 * time.Microsecond,
		ServiceTailBits: 22,
		CWMin:           15,
		CWMax:           1023,
		RatesBps:        []float64{6e6, 9e6, 12e6, 18e6, 24e6, 36e6, 48e6, 54e6},
		BasicRateBps:    6e6,
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
// header + payload + FCS) at rateBps. OFDM PHYs are symbol-quantized; DSSS
// PHYs are bit-exact.
func (p WiFiPHY) TxTime(frameBytes int, rateBps float64) (time.Duration, error) {
	if frameBytes < 0 {
		return 0, fmt.Errorf("phy: negative frame size %d", frameBytes)
	}
	if rateBps <= 0 {
		return 0, fmt.Errorf("phy: non-positive rate %g", rateBps)
	}
	bits := float64(8 * frameBytes)
	if p.SymbolTime > 0 {
		bitsPerSymbol := rateBps * p.SymbolTime.Seconds()
		symbols := math.Ceil((bits + float64(p.ServiceTailBits)) / bitsPerSymbol)
		return p.PreambleHeader + time.Duration(symbols)*p.SymbolTime, nil
	}
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
