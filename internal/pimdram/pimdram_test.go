package pimdram_test

import (
	"testing"

	"distda/internal/backend/backendtest"
	"distda/internal/pimdram"
)

func TestConformance(t *testing.T) {
	backendtest.Conformance(t, pimdram.Backend)
}

func TestCaps(t *testing.T) {
	caps := pimdram.Backend.Caps()
	if !caps.InDRAM {
		t.Fatal("pimdram must report InDRAM placement")
	}
	if caps.MaxPortWidth != pimdram.MaxWidth {
		t.Fatalf("MaxPortWidth = %d, want %d", caps.MaxPortWidth, pimdram.MaxWidth)
	}
}

func TestResetMatchesNew(t *testing.T) {
	backendtest.ResetMatchesNew(t, pimdram.Backend)
}
