package device

import (
	"math"
	"testing"
	"testing/quick"

	"netpowerprop/internal/units"
)

// TestTable1Constants asserts the paper's Table 1 inputs verbatim.
func TestTable1Constants(t *testing.T) {
	if H100MaxPower != 400*units.Watt {
		t.Errorf("H100 max power = %v, want 400 W", H100MaxPower)
	}
	if SwitchMaxPower != 750*units.Watt {
		t.Errorf("switch max power = %v, want 750 W", SwitchMaxPower)
	}
	if GPUUnitMaxPower != 500*units.Watt {
		t.Errorf("GPU unit max power = %v, want 500 W (400 GPU + 100 server share)", GPUUnitMaxPower)
	}
	if SwitchCapacity != 51.2*units.Tbps {
		t.Errorf("switch capacity = %v, want 51.2 Tbps", SwitchCapacity)
	}
}

// TestTable2NIC asserts the paper's Table 2 NIC row verbatim.
func TestTable2NIC(t *testing.T) {
	want := map[float64]float64{100: 8.6, 200: 16.7, 400: 25.4, 800: 38.6, 1600: 58.8}
	for gbps, watts := range want {
		p, err := NICPower(units.Bandwidth(gbps) * units.Gbps)
		if err != nil {
			t.Fatalf("NICPower(%vG): %v", gbps, err)
		}
		if math.Abs(p.Watts()-watts) > 1e-9 {
			t.Errorf("NICPower(%vG) = %v W, want %v W", gbps, p.Watts(), watts)
		}
	}
}

// TestTable2Transceiver asserts the paper's Table 2 transceiver row verbatim.
func TestTable2Transceiver(t *testing.T) {
	want := map[float64]float64{100: 4, 200: 6.5, 400: 10, 800: 16.5, 1600: 27.27}
	for gbps, watts := range want {
		p, err := TransceiverPower(units.Bandwidth(gbps) * units.Gbps)
		if err != nil {
			t.Fatalf("TransceiverPower(%vG): %v", gbps, err)
		}
		if math.Abs(p.Watts()-watts) > 1e-9 {
			t.Errorf("TransceiverPower(%vG) = %v W, want %v W", gbps, p.Watts(), watts)
		}
	}
}

func TestInterpolationBetweenRatedPoints(t *testing.T) {
	// 300G is midway between 200G (16.7) and 400G (25.4): expect 21.05 W.
	p, err := NICPower(300 * units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Watts()-21.05) > 1e-9 {
		t.Errorf("NICPower(300G) = %v W, want 21.05 W", p.Watts())
	}
}

func TestExtrapolationOutsideRange(t *testing.T) {
	// Below 100G: extrapolate from 100/200 pair; 50G -> 8.6 - 0.081*50 = 4.55.
	p, err := NICPower(50 * units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Watts()-4.55) > 1e-9 {
		t.Errorf("NICPower(50G) = %v W, want 4.55 W", p.Watts())
	}
	// Above 1600G: extrapolate from 800/1600 pair.
	p, err = NICPower(3200 * units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	want := 58.8 + (58.8-38.6)/800*1600
	if math.Abs(p.Watts()-want) > 1e-9 {
		t.Errorf("NICPower(3200G) = %v W, want %v W", p.Watts(), want)
	}
}

func TestLookupErrors(t *testing.T) {
	if _, err := NICPower(0); err == nil {
		t.Error("NICPower(0) should fail")
	}
	if _, err := TransceiverPower(-1 * units.Gbps); err == nil {
		t.Error("TransceiverPower(-1G) should fail")
	}
}

func TestSwitchPorts(t *testing.T) {
	tests := []struct {
		speed units.Bandwidth
		want  int
	}{
		{100 * units.Gbps, 512},
		{200 * units.Gbps, 256},
		{400 * units.Gbps, 128},
		{800 * units.Gbps, 64},
		{1600 * units.Gbps, 32},
	}
	for _, tt := range tests {
		got, err := SwitchPorts(tt.speed)
		if err != nil {
			t.Fatalf("SwitchPorts(%v): %v", tt.speed, err)
		}
		if got != tt.want {
			t.Errorf("SwitchPorts(%v) = %d, want %d", tt.speed, got, tt.want)
		}
	}
	if _, err := SwitchPorts(0); err == nil {
		t.Error("SwitchPorts(0) should fail")
	}
	if _, err := SwitchPorts(40 * units.Tbps); err == nil {
		t.Error("SwitchPorts above half capacity should fail")
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		ClassGPU:         "GPU&Server",
		ClassSwitch:      "Switches",
		ClassNIC:         "NICs",
		ClassTransceiver: "Transceiver",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Class(%d).String() = %q, want %q", int(c), c.String(), s)
		}
	}
	if Class(99).String() != "Class(99)" {
		t.Errorf("unknown class formatting broken: %q", Class(99).String())
	}
	if len(Classes()) != 4 {
		t.Errorf("Classes() should enumerate 4 classes")
	}
}

func TestRatedSpeedsSorted(t *testing.T) {
	speeds := RatedSpeeds()
	if len(speeds) != 5 {
		t.Fatalf("RatedSpeeds() len = %d, want 5", len(speeds))
	}
	for i := 1; i < len(speeds); i++ {
		if speeds[i] <= speeds[i-1] {
			t.Errorf("RatedSpeeds not ascending at %d: %v", i, speeds)
		}
	}
}

// Property: NIC and transceiver power are monotone non-decreasing in speed
// over the modeled range — faster interfaces never draw less power.
func TestPowerMonotoneInSpeed(t *testing.T) {
	f := func(a, b uint16) bool {
		sa := units.Bandwidth(50+int(a)%3200) * units.Gbps
		sb := units.Bandwidth(50+int(b)%3200) * units.Gbps
		if sa > sb {
			sa, sb = sb, sa
		}
		pa, err1 := NICPower(sa)
		pb, err2 := NICPower(sb)
		ta, err3 := TransceiverPower(sa)
		tb, err4 := TransceiverPower(sb)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		return pa <= pb+1e-12 && ta <= tb+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: interpolated power is bounded by the bracketing table entries.
func TestInterpolationBounded(t *testing.T) {
	f := func(raw uint16) bool {
		s := units.Bandwidth(100+int(raw)%1500) * units.Gbps
		p, err := NICPower(s)
		if err != nil {
			return false
		}
		return p >= 8.6*units.Watt-1e-9 && p <= 58.8*units.Watt+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
