package pimdram_test

import (
	"testing"

	"distda/internal/backend"
	"distda/internal/backend/backendtest"
	"distda/internal/pimdram"
)

func TestConformance(t *testing.T) {
	backendtest.Conformance(t, "pimdram")
}

func TestCaps(t *testing.T) {
	be, ok := backend.Lookup("pimdram")
	if !ok {
		t.Fatal("pimdram backend not registered")
	}
	caps := be.Caps()
	if !caps.InDRAM {
		t.Fatal("pimdram must report InDRAM placement")
	}
	if caps.NearData {
		t.Fatal("pimdram is channel-side, not near-L3")
	}
	if caps.MaxPortWidth != pimdram.MaxWidth {
		t.Fatalf("MaxPortWidth = %d, want %d", caps.MaxPortWidth, pimdram.MaxWidth)
	}
}

func TestResetMatchesNew(t *testing.T) {
	backendtest.ResetMatchesNew(t, "pimdram")
}
