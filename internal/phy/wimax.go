package phy

import (
	"fmt"
	"time"
)

// Modulation is an 802.16 OFDM burst profile.
type Modulation int

// WirelessMAN-OFDM burst profiles (rate-id order of the standard).
const (
	BPSK12 Modulation = iota + 1
	QPSK12
	QPSK34
	QAM16x12
	QAM16x34
	QAM64x23
	QAM64x34
)

func (m Modulation) String() string {
	switch m {
	case BPSK12:
		return "BPSK-1/2"
	case QPSK12:
		return "QPSK-1/2"
	case QPSK34:
		return "QPSK-3/4"
	case QAM16x12:
		return "16QAM-1/2"
	case QAM16x34:
		return "16QAM-3/4"
	case QAM64x23:
		return "64QAM-2/3"
	case QAM64x34:
		return "64QAM-3/4"
	default:
		return fmt.Sprintf("Modulation(%d)", int(m))
	}
}

// uncodedBytesPerSymbol gives the data bytes carried by one 256-FFT OFDM
// symbol (192 data subcarriers) per burst profile, from the 802.16-2004
// standard.
var uncodedBytesPerSymbol = map[Modulation]int{
	BPSK12:   12,
	QPSK12:   24,
	QPSK34:   36,
	QAM16x12: 48,
	QAM16x34: 72,
	QAM64x23: 96,
	QAM64x34: 108,
}

// WiMAXPHY models the IEEE 802.16 WirelessMAN-OFDM (256-FFT) physical layer
// used by mesh mode.
type WiMAXPHY struct {
	// BandwidthHz is the channel bandwidth (e.g. 10e6).
	BandwidthHz float64
	// CyclicPrefix is the guard fraction G (1/4, 1/8, 1/16 or 1/32).
	CyclicPrefix float64
	// SamplingFactor is n = Fs/BW (8/7 for the 10 MHz profile).
	SamplingFactor float64
}

// DefaultWiMAXPHY returns the common 10 MHz, G=1/4 mesh profile.
func DefaultWiMAXPHY() WiMAXPHY {
	return WiMAXPHY{BandwidthHz: 10e6, CyclicPrefix: 0.25, SamplingFactor: 8.0 / 7.0}
}

// SymbolTime returns the OFDM symbol duration Ts = (1+G) * 256/Fs.
func (w WiMAXPHY) SymbolTime() (time.Duration, error) {
	if w.BandwidthHz <= 0 || w.SamplingFactor <= 0 {
		return 0, fmt.Errorf("phy: invalid WiMAX PHY %+v", w)
	}
	fs := w.SamplingFactor * w.BandwidthHz
	tb := 256.0 / fs
	ts := (1 + w.CyclicPrefix) * tb
	return time.Duration(ts * float64(time.Second)), nil
}

// BytesPerSymbol returns the payload bytes one OFDM symbol carries under the
// given burst profile.
func (w WiMAXPHY) BytesPerSymbol(m Modulation) (int, error) {
	b, ok := uncodedBytesPerSymbol[m]
	if !ok {
		return 0, fmt.Errorf("phy: unknown modulation %v", m)
	}
	return b, nil
}
