package power

import (
	"math"
	"testing"
	"testing/quick"

	"netpowerprop/internal/units"
)

func TestModelIdle(t *testing.T) {
	tests := []struct {
		max  units.Power
		prop float64
		idle float64 // watts
	}{
		{500 * units.Watt, 0.85, 75},     // paper's GPU unit (§2.3.1)
		{750 * units.Watt, 0.10, 675},    // paper's switch at baseline prop
		{100 * units.Watt, 0, 100},       // fully non-proportional
		{100 * units.Watt, 1, 0},         // perfectly proportional
		{25.4 * units.Watt, 0.10, 22.86}, // 400G NIC
	}
	for _, tt := range tests {
		m, err := NewModel(tt.max, tt.prop)
		if err != nil {
			t.Fatalf("NewModel(%v, %v): %v", tt.max, tt.prop, err)
		}
		if got := m.Idle().Watts(); math.Abs(got-tt.idle) > 1e-9 {
			t.Errorf("Idle(%v, prop=%v) = %v W, want %v W", tt.max, tt.prop, got, tt.idle)
		}
	}
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(-1*units.Watt, 0.5); err == nil {
		t.Error("negative max power should fail")
	}
	if _, err := NewModel(100*units.Watt, -0.1); err == nil {
		t.Error("negative proportionality should fail")
	}
	if _, err := NewModel(100*units.Watt, 1.1); err == nil {
		t.Error("proportionality > 1 should fail")
	}
}

func TestAtTwoState(t *testing.T) {
	m, _ := NewModel(100*units.Watt, 0.4)
	if got := m.At(0); got != 60*units.Watt {
		t.Errorf("At(0) = %v, want 60 W", got)
	}
	for _, u := range []float64{0.01, 0.5, 1, 2} {
		if got := m.At(u); got != 100*units.Watt {
			t.Errorf("At(%v) = %v, want 100 W (two-state: busy = max)", u, got)
		}
	}
}

func TestAtLinear(t *testing.T) {
	m, _ := NewModel(100*units.Watt, 0.4) // idle 60
	tests := []struct{ u, want float64 }{
		{0, 60}, {0.5, 80}, {1, 100}, {-1, 60}, {2, 100},
	}
	for _, tt := range tests {
		if got := m.AtLinear(tt.u).Watts(); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("AtLinear(%v) = %v, want %v", tt.u, got, tt.want)
		}
	}
}

// Property: Eq. 1 round-trips through Model: building a model with
// proportionality p and recomputing (max − idle) / max recovers p.
func TestProportionalityRoundTrip(t *testing.T) {
	f := func(rawMax, rawP float64) bool {
		max := units.Power(1 + math.Abs(math.Mod(rawMax, 1e6)))
		p := math.Abs(math.Mod(rawP, 1.0))
		m, err := NewModel(max, p)
		if err != nil {
			return false
		}
		back := float64(m.Max-m.Idle()) / float64(m.Max)
		return math.Abs(back-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: power draw is always within [idle, max].
func TestPowerBounded(t *testing.T) {
	f := func(rawMax, rawP, rawU float64) bool {
		max := units.Power(math.Abs(math.Mod(rawMax, 1e6)))
		p := math.Abs(math.Mod(rawP, 1.0))
		u := math.Mod(rawU, 2.0)
		m, err := NewModel(max, p)
		if err != nil {
			return false
		}
		for _, got := range []units.Power{m.At(u), m.AtLinear(u)} {
			if got < m.Idle()-1e-9 || got > m.Max+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
