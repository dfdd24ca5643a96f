// Package stats provides the small numerical toolbox the analysis needs:
// linear interpolation, clamping, and an exponentially weighted moving
// average.
package stats

import "math"

// Lerp linearly interpolates between (x0,y0) and (x1,y1) at x. When x0==x1
// it returns y0.
func Lerp(x0, y0, x1, y1, x float64) float64 {
	if x1 == x0 {
		return y0
	}
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0)
}

// Clamp restricts v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	return math.Min(hi, math.Max(lo, v))
}

// EWMA is an exponentially weighted moving average with smoothing factor
// alpha in (0,1]. The zero value is unseeded; the first Update seeds it.
type EWMA struct {
	Alpha  float64
	value  float64
	seeded bool
}

// Update folds a sample into the average and returns the new value.
func (e *EWMA) Update(x float64) float64 {
	if !e.seeded {
		e.value = x
		e.seeded = true
		return x
	}
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 0.5
	}
	e.value = a*x + (1-a)*e.value
	return e.value
}

// Value returns the current average (0 before any update).
func (e *EWMA) Value() float64 { return e.value }
