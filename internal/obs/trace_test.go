package obs

import (
	"context"
	"testing"
)

func TestNewTraceIDShapeAndUniqueness(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q: want 16 hex chars", id)
		}
		if !ValidTraceID(id) {
			t.Fatalf("generated trace id %q fails its own validation", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	ctx := context.Background()
	if got := TraceID(ctx); got != "" {
		t.Errorf("empty context trace = %q, want \"\"", got)
	}
	ctx = WithTraceID(ctx, "abc123")
	if got := TraceID(ctx); got != "abc123" {
		t.Errorf("trace = %q, want abc123", got)
	}
}

func TestValidTraceID(t *testing.T) {
	for _, ok := range []string{"abc", "AB-12_z", "0123456789abcdef"} {
		if !ValidTraceID(ok) {
			t.Errorf("ValidTraceID(%q) = false, want true", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "has space", "semi;colon", "new\nline", `quo"te`, string(long)} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true, want false", bad)
		}
	}
}
