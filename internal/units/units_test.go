package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBandwidthScales(t *testing.T) {
	tests := []struct {
		in   Bandwidth
		gbps float64
	}{
		{400 * Gbps, 400},
		{51.2 * Tbps, 51200},
		{100 * Mbps, 0.1},
		{0, 0},
	}
	for _, tt := range tests {
		if got := float64(tt.in / Gbps); math.Abs(got-tt.gbps) > 1e-9 {
			t.Errorf("%float64(v / Gbps) = %v, want %v", tt.in, got, tt.gbps)
		}
	}
}

func TestParseBandwidth(t *testing.T) {
	tests := []struct {
		in   string
		want Bandwidth
	}{
		{"400G", 400 * Gbps},
		{"400 Gbps", 400 * Gbps},
		{"400Gb", 400 * Gbps},
		{"51.2T", 51.2 * Tbps},
		{"51.2 Tbps", 51.2 * Tbps},
		{"100", 100 * Gbps}, // bare numbers are Gbps (paper convention)
		{"1600g", 1600 * Gbps},
		{"10Mbps", 10 * Mbps},
		{"5kbps", 5 * Kbps},
	}
	for _, tt := range tests {
		got, err := ParseBandwidth(tt.in)
		if err != nil {
			t.Errorf("ParseBandwidth(%q) error: %v", tt.in, err)
			continue
		}
		if math.Abs(float64(got-tt.want)) > 1e-3 {
			t.Errorf("ParseBandwidth(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseBandwidthErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "400X", "  ", "12.5 parsecs"} {
		if _, err := ParseBandwidth(in); err == nil {
			t.Errorf("ParseBandwidth(%q) expected error, got nil", in)
		}
	}
}

func TestBandwidthString(t *testing.T) {
	tests := []struct {
		in   Bandwidth
		want string
	}{
		{400 * Gbps, "400 Gbps"},
		{51.2 * Tbps, "51.2 Tbps"},
		{1 * Kbps, "1 Kbps"},
		{512 * BitPerSecond, "512 bps"},
		{1.5 * Mbps, "1.5 Mbps"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestPowerString(t *testing.T) {
	tests := []struct {
		in   Power
		want string
	}{
		{750 * Watt, "750 W"},
		{365 * Kilowatt, "365 kW"},
		{7.68 * Megawatt, "7.68 MW"},
		{0, "0 W"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestEnergyConversions(t *testing.T) {
	e := EnergyOver(1*Kilowatt, 3600) // 1 kW for one hour
	if got := float64(e / KilowattHour); math.Abs(got-1) > 1e-9 {
		t.Errorf("1kW x 1h = %v kWh, want 1", got)
	}
	if got := AveragePower(e, 3600); math.Abs(float64(got-1*Kilowatt)) > 1e-9 {
		t.Errorf("AveragePower = %v, want 1 kW", got)
	}
	if got := AveragePower(e, 0); got != 0 {
		t.Errorf("AveragePower over zero duration = %v, want 0", got)
	}
}

func TestEnergyString(t *testing.T) {
	tests := []struct {
		in   Energy
		want string
	}{
		{500 * Joule, "500 J"},
		{5 * Kilojoule, "5 kJ"},
		{2 * KilowattHour, "2 kWh"},
		{3 * MegawattHour, "3 MWh"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// Property: energy over a duration divided back by the duration recovers the
// power, for any positive power and duration.
func TestEnergyPowerRoundTrip(t *testing.T) {
	f := func(pw, dur float64) bool {
		p := Power(math.Abs(math.Mod(pw, 1e9)))
		d := Seconds(1e-3 + math.Abs(math.Mod(dur, 1e6)))
		back := AveragePower(EnergyOver(p, d), d)
		return math.Abs(float64(back-p)) <= 1e-6*math.Max(1, float64(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: formatting then parsing a bandwidth is lossy only in rounding.
func TestBandwidthFormatParseRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		b := Bandwidth(1 + math.Abs(math.Mod(raw, 1e13)))
		parsed, err := ParseBandwidth(b.String())
		if err != nil {
			return false
		}
		// String() keeps 3 decimals of the scaled value; allow 0.1% slack.
		return math.Abs(float64(parsed-b)) <= 1e-3*float64(b)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrimFloat(t *testing.T) {
	tests := []struct {
		in   float64
		want string
	}{
		{1.0, "1"},
		{1.5, "1.5"},
		{1.250, "1.25"},
		{0.0, "0"},
		{-2.400, "-2.4"},
	}
	for _, tt := range tests {
		if got := trimFloat(tt.in); got != tt.want {
			t.Errorf("trimFloat(%v) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
