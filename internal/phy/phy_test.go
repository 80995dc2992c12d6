package phy

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDIFS(t *testing.T) {
	tests := []struct {
		phy  WiFiPHY
		want time.Duration
	}{
		{IEEE80211b(), 50 * time.Microsecond},
	}
	for _, tt := range tests {
		if got := tt.phy.DIFS(); got != tt.want {
			t.Errorf("%s DIFS = %v, want %v", tt.phy.Name, got, tt.want)
		}
	}
}

func TestTxTimeDSSSExact(t *testing.T) {
	p := IEEE80211b()
	// 100 bytes at 1 Mb/s: 192 us preamble + 800 us payload.
	got, err := p.TxTime(100, 1e6)
	if err != nil {
		t.Fatalf("TxTime: %v", err)
	}
	if want := 992 * time.Microsecond; got != want {
		t.Errorf("TxTime = %v, want %v", got, want)
	}
	// 11 Mb/s: 1500 bytes -> 12000 bits / 11e6 = 1090.909.. us.
	got, err = p.TxTime(1500, 11e6)
	if err != nil {
		t.Fatalf("TxTime: %v", err)
	}
	want := 192*time.Microsecond + time.Duration(math.Ceil(12000.0/11e6*1e9))*time.Nanosecond
	if got != want {
		t.Errorf("TxTime = %v, want %v", got, want)
	}
}

func TestTxTimeValidation(t *testing.T) {
	p := IEEE80211b()
	if _, err := p.TxTime(-1, 1e6); err == nil {
		t.Error("negative frame size accepted")
	}
	if _, err := p.TxTime(10, 0); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestACKTime(t *testing.T) {
	p := IEEE80211b()
	// 14 bytes at 1 Mb/s = 112 us + 192 us preamble.
	if got, want := p.ACKTime(), 304*time.Microsecond; got != want {
		t.Errorf("ACKTime = %v, want %v", got, want)
	}
}

func TestDataExchangeTime(t *testing.T) {
	p := IEEE80211b()
	d, err := p.DataFrameTime(200, 11e6)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := p.DataExchangeTime(200, 11e6)
	if err != nil {
		t.Fatal(err)
	}
	if want := d + p.SIFS + p.ACKTime(); ex != want {
		t.Errorf("DataExchangeTime = %v, want %v", ex, want)
	}
}

func TestSupportsRate(t *testing.T) {
	p := IEEE80211b()
	if !p.SupportsRate(11e6) {
		t.Error("11 Mb/s not supported on 802.11b")
	}
	if p.SupportsRate(54e6) {
		t.Error("54 Mb/s wrongly supported on 802.11b")
	}
}

func TestWiMAXSymbolTime(t *testing.T) {
	w := DefaultWiMAXPHY()
	ts, err := w.SymbolTime()
	if err != nil {
		t.Fatalf("SymbolTime: %v", err)
	}
	// Fs = 8/7 * 10 MHz; Tb = 256/Fs = 22.4 us; Ts = 1.25*Tb = 28 us.
	if want := 28 * time.Microsecond; ts != want {
		t.Errorf("SymbolTime = %v, want %v", ts, want)
	}
}

func TestWiMAXBytesPerSymbol(t *testing.T) {
	w := DefaultWiMAXPHY()
	tests := []struct {
		m    Modulation
		want int
	}{
		{BPSK12, 12}, {QPSK12, 24}, {QPSK34, 36},
		{QAM16x12, 48}, {QAM16x34, 72}, {QAM64x23, 96}, {QAM64x34, 108},
	}
	for _, tt := range tests {
		got, err := w.BytesPerSymbol(tt.m)
		if err != nil {
			t.Fatalf("BytesPerSymbol(%v): %v", tt.m, err)
		}
		if got != tt.want {
			t.Errorf("BytesPerSymbol(%v) = %d, want %d", tt.m, got, tt.want)
		}
	}
	if _, err := w.BytesPerSymbol(Modulation(99)); err == nil {
		t.Error("unknown modulation accepted")
	}
}

func TestModulationString(t *testing.T) {
	if BPSK12.String() != "BPSK-1/2" || QAM64x34.String() != "64QAM-3/4" {
		t.Error("modulation names wrong")
	}
	if Modulation(42).String() == "" {
		t.Error("unknown modulation String empty")
	}
}

// Property: airtime is monotone non-decreasing in frame size at every rate.
func TestPropertyAirtimeMonotone(t *testing.T) {
	p := IEEE80211b()
	prop := func(sz uint16, rateIdx uint8) bool {
		rate := p.RatesBps[int(rateIdx)%len(p.RatesBps)]
		a, err := p.TxTime(int(sz), rate)
		if err != nil {
			return false
		}
		b, err := p.TxTime(int(sz)+1, rate)
		if err != nil {
			return false
		}
		return b >= a && a >= p.PreambleHeader
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: higher WiMAX modulations never need more symbols for the same
// payload.
func TestPropertyWiMAXModulationOrdering(t *testing.T) {
	w := DefaultWiMAXPHY()
	order := []Modulation{BPSK12, QPSK12, QPSK34, QAM16x12, QAM16x34, QAM64x23, QAM64x34}
	prop := func(sz uint16) bool {
		prev := math.MaxInt
		for _, m := range order {
			b, err := w.BytesPerSymbol(m)
			if err != nil {
				return false
			}
			s := (int(sz) + b - 1) / b
			if s > prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestETX(t *testing.T) {
	if got := ETX(0); got != 1 {
		t.Errorf("ETX(0) = %g", got)
	}
	if got := ETX(0.5); got != 2 {
		t.Errorf("ETX(0.5) = %g", got)
	}
	if !math.IsInf(ETX(1), 1) {
		t.Error("ETX(1) not +Inf")
	}
}
