package voip

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"wimesh/internal/sim"
)

func TestCodecPacketSizes(t *testing.T) {
	tests := []struct {
		codec       Codec
		wantPayload int
		wantPacket  int
	}{
		{G711(), 160, 200},
		{G729(), 20, 60},
		{G7231(), 24, 64}, // 6.3 kb/s * 30 ms / 8 = 23.6 -> 24
	}
	for _, tt := range tests {
		if got := tt.codec.PayloadBytes(); got != tt.wantPayload {
			t.Errorf("%s payload = %d, want %d", tt.codec.Name, got, tt.wantPayload)
		}
		if got := tt.codec.PacketBytes(); got != tt.wantPacket {
			t.Errorf("%s packet = %d, want %d", tt.codec.Name, got, tt.wantPacket)
		}
	}
}

func TestCodecBandwidth(t *testing.T) {
	// G.711: 200 bytes * 50 pps * 8 = 80 kb/s.
	if got := G711().BandwidthBps(); got != 80e3 {
		t.Errorf("G.711 bandwidth = %g, want 80e3", got)
	}
	if got := G711().PacketsPerSecond(); got != 50 {
		t.Errorf("G.711 pps = %g, want 50", got)
	}
}

func TestCodecValidate(t *testing.T) {
	for _, c := range []Codec{G711(), G729(), G7231()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name, err)
		}
	}
	bad := Codec{Name: "bad"}
	if err := bad.Validate(); err == nil {
		t.Error("zero codec accepted")
	}
}

func TestDelayImpairment(t *testing.T) {
	if got := DelayImpairment(0); got != 0 {
		t.Errorf("Id(0) = %g", got)
	}
	if got := DelayImpairment(100 * time.Millisecond); math.Abs(got-2.4) > 1e-9 {
		t.Errorf("Id(100ms) = %g, want 2.4", got)
	}
	// Above the 177.3 ms knee the slope steepens.
	lo := DelayImpairment(177 * time.Millisecond)
	hi := DelayImpairment(200 * time.Millisecond)
	slope := (hi - lo) / 23
	if slope < 0.1 {
		t.Errorf("post-knee slope %g too shallow", slope)
	}
}

func TestEvaluateCleanCall(t *testing.T) {
	q, err := Evaluate(G711(), 50*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Acceptable() {
		t.Errorf("clean G.711 call at 50 ms not acceptable: R=%g", q.R)
	}
	if q.MOS < 4.0 {
		t.Errorf("clean call MOS = %g, want >= 4.0", q.MOS)
	}
}

func TestEvaluateDegradations(t *testing.T) {
	clean, err := Evaluate(G711(), 50*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	late, err := Evaluate(G711(), 400*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if late.R >= clean.R {
		t.Error("delay did not reduce R")
	}
	if late.Acceptable() {
		t.Errorf("400 ms call still acceptable: R=%g", late.R)
	}
	lossy, err := Evaluate(G711(), 50*time.Millisecond, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if lossy.R >= clean.R {
		t.Error("loss did not reduce R")
	}
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := Evaluate(G711(), -time.Millisecond, 0); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := Evaluate(G711(), 0, 1.5); err == nil {
		t.Error("loss > 1 accepted")
	}
	if _, err := Evaluate(Codec{}, 0, 0); err == nil {
		t.Error("invalid codec accepted")
	}
}

func TestMOSFromRRange(t *testing.T) {
	if MOSFromR(-10) != 1 {
		t.Error("MOS(-10) != 1")
	}
	if MOSFromR(150) != 4.5 {
		t.Error("MOS(150) != 4.5")
	}
	// R=93.2 (perfect narrowband) maps to ~4.4.
	if m := MOSFromR(93.2); m < 4.3 || m > 4.5 {
		t.Errorf("MOS(93.2) = %g", m)
	}
}

func TestEndToEndDelay(t *testing.T) {
	got := EndToEndDelay(G729(), 30*time.Millisecond, 40*time.Millisecond)
	want := 30*time.Millisecond + 40*time.Millisecond + 20*time.Millisecond + 15*time.Millisecond
	if got != want {
		t.Errorf("EndToEndDelay = %v, want %v", got, want)
	}
}

func TestCBRSourceEmitsAtInterval(t *testing.T) {
	k := sim.NewKernel()
	var pkts []Packet
	src, err := NewSource(G711(), ModeCBR, func(p Packet) { pkts = append(pkts, p) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Start(k, 0); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(time.Second)
	src.Stop()
	// 20 ms interval over [0, 1s]: 51 packets (t=0 and t=1s inclusive).
	if len(pkts) != 51 {
		t.Errorf("emitted %d packets, want 51", len(pkts))
	}
	for i, p := range pkts {
		if p.Seq != i {
			t.Fatalf("seq %d at index %d", p.Seq, i)
		}
		if want := time.Duration(i) * 20 * time.Millisecond; p.Sent != want {
			t.Fatalf("packet %d at %v, want %v", i, p.Sent, want)
		}
		if p.Bytes != 200 {
			t.Fatalf("packet bytes = %d, want 200", p.Bytes)
		}
	}
}

func TestCBRSourceOffset(t *testing.T) {
	k := sim.NewKernel()
	var first time.Duration = -1
	src, err := NewSource(G711(), ModeCBR, func(p Packet) {
		if first < 0 {
			first = p.Sent
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Start(k, 7*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(100 * time.Millisecond)
	src.Stop()
	if first != 7*time.Millisecond {
		t.Errorf("first packet at %v, want 7ms", first)
	}
}

func TestTalkSpurtSourceActivityFactor(t *testing.T) {
	k := sim.NewKernel()
	count := 0
	src, err := NewSource(G711(), ModeTalkSpurt, func(Packet) { count++ }, sim.NewRNG(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Start(k, 0); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(60 * time.Second)
	src.Stop()
	// Brady model activity ~ 1.0/(1.0+1.35) = 0.43; CBR would emit 3001.
	full := 3001.0
	activity := float64(count) / full
	if activity < 0.2 || activity > 0.7 {
		t.Errorf("activity factor = %g, want ~0.43", activity)
	}
}

func TestTalkSpurtNeedsRNG(t *testing.T) {
	if _, err := NewSource(G711(), ModeTalkSpurt, func(Packet) {}, nil); err == nil {
		t.Error("talk-spurt source without rng accepted")
	}
}

func TestNewSourceValidation(t *testing.T) {
	if _, err := NewSource(G711(), ModeCBR, nil, nil); err == nil {
		t.Error("nil emit accepted")
	}
	if _, err := NewSource(G711(), SourceMode(0), func(Packet) {}, nil); err == nil {
		t.Error("bad mode accepted")
	}
	src, err := NewSource(G711(), ModeCBR, func(Packet) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Start(sim.NewKernel(), -time.Second); err == nil {
		t.Error("negative offset accepted")
	}
}

// Property: R is monotone non-increasing in both delay and loss.
func TestPropertyEModelMonotone(t *testing.T) {
	prop := func(d1, d2 uint16, l1, l2 uint8) bool {
		da := time.Duration(d1%500) * time.Millisecond
		db := time.Duration(d2%500) * time.Millisecond
		if da > db {
			da, db = db, da
		}
		la := float64(l1%100) / 100
		lb := float64(l2%100) / 100
		if la > lb {
			la, lb = lb, la
		}
		q1, err := Evaluate(G729(), da, la)
		if err != nil {
			return false
		}
		q2, err := Evaluate(G729(), db, lb)
		if err != nil {
			return false
		}
		if q2.R > q1.R+1e-9 {
			return false
		}
		// The G.107 R->MOS cubic is slightly non-monotone near R=0, so only
		// require MOS monotonicity in the usable region.
		if q1.R >= 20 && q2.R >= 20 && q2.MOS > q1.MOS+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
