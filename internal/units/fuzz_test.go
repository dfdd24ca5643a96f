package units

import (
	"math"
	"strings"
	"testing"
)

// FuzzParseBandwidth checks the parser never panics and that accepted
// inputs round-trip through String within formatting tolerance.
func FuzzParseBandwidth(f *testing.F) {
	for _, seed := range []string{"400G", "51.2 Tbps", "100", "0", "-5G", "1e3Mbps",
		"  12.5 Kbps ", "Gbps", "4e", "4eG", "1.2.3G", "9999999999999T"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b, err := ParseBandwidth(s)
		if err != nil {
			return
		}
		if math.IsNaN(float64(b)) {
			t.Fatalf("ParseBandwidth(%q) = NaN without error", s)
		}
		// Positive finite values must round-trip through String.
		if b > 0 && !math.IsInf(float64(b), 0) {
			back, err := ParseBandwidth(b.String())
			if err != nil {
				t.Fatalf("reparse of %q (from %q) failed: %v", b.String(), s, err)
			}
			if float64(b) > 1 && math.Abs(float64(back-b)) > 1e-3*float64(b)+1 {
				t.Fatalf("round trip %q -> %v -> %v", s, b, back)
			}
		}
	})
}

// FuzzSplitQuantity hammers the shared tokenizer directly.
func FuzzSplitQuantity(f *testing.F) {
	for _, seed := range []string{"", " ", "1", "1.5e3 kW", "e", "+", "-", "..", "1e+", "1E9G"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		num, suffix, err := splitQuantity(s)
		if err != nil {
			return
		}
		if math.IsNaN(num) {
			t.Fatalf("splitQuantity(%q) returned NaN without error", s)
		}
		if strings.TrimSpace(suffix) != suffix {
			t.Fatalf("splitQuantity(%q) returned untrimmed suffix %q", s, suffix)
		}
	})
}
