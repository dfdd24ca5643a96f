package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLerp(t *testing.T) {
	tests := []struct{ x0, y0, x1, y1, x, want float64 }{
		{0, 0, 1, 10, 0.5, 5},
		{0, 0, 1, 10, 0, 0},
		{0, 0, 1, 10, 1, 10},
		{0, 0, 1, 10, 2, 20},   // extrapolation
		{0, 0, 1, 10, -1, -10}, // extrapolation below
		{5, 7, 5, 9, 5, 7},     // degenerate segment returns y0
	}
	for _, tt := range tests {
		if got := Lerp(tt.x0, tt.y0, tt.x1, tt.y1, tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Lerp(...%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp broken")
	}
}

func TestEWMA(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	if e.Value() != 0 {
		t.Errorf("fresh EWMA value = %v, want 0", e.Value())
	}
	if got := e.Update(10); got != 10 {
		t.Errorf("first update seeds: got %v", got)
	}
	if got := e.Update(20); math.Abs(got-15) > 1e-12 {
		t.Errorf("second update = %v, want 15", got)
	}
	if e.Value() != 15 {
		t.Errorf("Value = %v", e.Value())
	}
	// Out-of-range alpha falls back to 0.5 rather than corrupting state.
	bad := EWMA{Alpha: 7}
	bad.Update(10)
	if got := bad.Update(20); math.Abs(got-15) > 1e-12 {
		t.Errorf("fallback alpha update = %v, want 15", got)
	}
}

// Property: Lerp at the endpoints returns the endpoint values exactly, and
// interior points lie between them for monotone segments.
func TestLerpBounded(t *testing.T) {
	f := func(y0, y1, tRaw float64) bool {
		y0 = math.Mod(y0, 1e6)
		y1 = math.Mod(y1, 1e6)
		tt := math.Abs(math.Mod(tRaw, 1.0))
		got := Lerp(0, y0, 1, y1, tt)
		lo, hi := math.Min(y0, y1), math.Max(y0, y1)
		return got >= lo-1e-9 && got <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
