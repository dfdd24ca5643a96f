package nos

import (
	"math"
	"strings"
	"testing"

	"netpowerprop/internal/asic"
)

func shell(t *testing.T) (*Shell, *strings.Builder) {
	t.Helper()
	a, err := asic.New(asic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sh, err := NewShell(a, &sb)
	if err != nil {
		t.Fatal(err)
	}
	return sh, &sb
}

func TestNewShellValidation(t *testing.T) {
	var sb strings.Builder
	if _, err := NewShell(nil, &sb); err == nil {
		t.Error("nil ASIC accepted")
	}
	a, _ := asic.New(asic.DefaultConfig())
	if _, err := NewShell(a, nil); err == nil {
		t.Error("nil writer accepted")
	}
}

func TestShowPower(t *testing.T) {
	sh, out := shell(t)
	if err := sh.Exec("show power"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "750 W") {
		t.Errorf("show power output: %q", out.String())
	}
}

func TestSetPortGates(t *testing.T) {
	sh, out := shell(t)
	before := sh.asic.Power()
	if err := sh.Exec("set port 0 down"); err != nil {
		t.Fatal(err)
	}
	if sh.asic.PortOn(0) {
		t.Error("port still up")
	}
	if sh.asic.Power() >= before {
		t.Error("gating a port did not reduce power")
	}
	if !strings.Contains(out.String(), "ok; power now") {
		t.Errorf("missing confirmation: %q", out.String())
	}
	if err := sh.Exec("set port 0 up"); err != nil {
		t.Fatal(err)
	}
	if sh.asic.Power() != before {
		t.Error("re-enabling did not restore power")
	}
}

func TestSetPipelineAndFreq(t *testing.T) {
	sh, _ := shell(t)
	if err := sh.Exec("set pipeline 1 off"); err != nil {
		t.Fatal(err)
	}
	if sh.asic.PipelineOn(1) {
		t.Error("pipeline still on")
	}
	if err := sh.Exec("set pipeline 0 freq 0.5"); err != nil {
		t.Fatal(err)
	}
	if math.Abs(sh.asic.PipelineFreq(0)-0.5) > 1e-12 {
		t.Error("frequency not applied")
	}
	if err := sh.Exec("set pipeline 0 freq 2"); err == nil {
		t.Error("invalid frequency accepted")
	}
}

func TestSetMemoryAndL3(t *testing.T) {
	sh, _ := shell(t)
	if err := sh.Exec("set memory 7 off"); err != nil {
		t.Fatal(err)
	}
	if sh.asic.MemoryBankOn(7) {
		t.Error("bank still on")
	}
	if err := sh.Exec("set l3 off"); err != nil {
		t.Fatal(err)
	}
	if sh.asic.L3On() {
		t.Error("l3 still on")
	}
}

func TestApplyMode(t *testing.T) {
	sh, out := shell(t)
	// Take half the ports down, then let PM3 park the empty pipelines.
	for p := 64; p < 128; p++ {
		if err := sh.Exec("set port " + itoa(p) + " down"); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Exec("apply mode PM3"); err != nil {
		t.Fatal(err)
	}
	if sh.asic.PipelineOn(2) || sh.asic.PipelineOn(3) {
		t.Error("PM3 left empty pipelines on")
	}
	if !sh.asic.PipelineOn(0) {
		t.Error("PM3 parked a live pipeline")
	}
	if !strings.Contains(out.String(), "mode PM3 applied") {
		t.Errorf("missing mode confirmation: %q", out.String())
	}
	if err := sh.Exec("apply mode PM9"); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := sh.Exec("apply PM3"); err == nil {
		t.Error("malformed apply accepted")
	}
}

func TestShowViews(t *testing.T) {
	sh, out := shell(t)
	for _, cmd := range []string{"show pipelines", "show ports", "show memory", "show modes", "help"} {
		if err := sh.Exec(cmd); err != nil {
			t.Fatalf("%q: %v", cmd, err)
		}
	}
	s := out.String()
	for _, want := range []string{"pipeline 0: on", "ports: 128/128 up", "memory banks: 8/8", "PM0", "PM3", "apply mode"} {
		if !strings.Contains(s, want) {
			t.Errorf("views missing %q:\n%s", want, s)
		}
	}
}

func TestExecErrors(t *testing.T) {
	sh, _ := shell(t)
	for _, cmd := range []string{
		"bogus", "show", "show bogus", "set", "set port", "set port x down",
		"set port 0 sideways", "set port 999 down", "set pipeline 0",
		"set pipeline x on", "set pipeline 0 freq x", "set memory 0",
		"set memory x off", "set memory 99 off", "set bogus 1 on", "set l3 maybe",
	} {
		if err := sh.Exec(cmd); err == nil {
			t.Errorf("%q accepted", cmd)
		}
	}
	// Blank lines and comments are no-ops.
	if err := sh.Exec(""); err != nil {
		t.Error("blank line errored")
	}
	if err := sh.Exec("# comment"); err != nil {
		t.Error("comment errored")
	}
}

func TestRunSession(t *testing.T) {
	sh, out := shell(t)
	script := strings.Join([]string{
		"# take the back half of the box down",
		"set port 127 down",
		"set l3 off",
		"show power",
		"not-a-command",
		"show ports",
	}, "\n")
	if err := sh.Run(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "error: nos: unknown command") {
		t.Errorf("session did not surface the bad command:\n%s", s)
	}
	if !strings.Contains(s, "ports: 127/128 up") {
		t.Errorf("session state wrong:\n%s", s)
	}
}

// itoa avoids importing strconv in tests for one call site.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}
