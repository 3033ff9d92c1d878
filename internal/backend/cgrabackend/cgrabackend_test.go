package cgrabackend_test

import (
	"testing"

	"distda/internal/backend"
	"distda/internal/backend/backendtest"
)

func TestConformance(t *testing.T) {
	for _, grid := range []string{"5x5", "8x8"} {
		grid := grid
		t.Run(grid, func(t *testing.T) {
			backendtest.Conformance(t, "cgra", backend.Opt("grid", grid))
		})
	}
}

func TestRejectsMissingGrid(t *testing.T) {
	be, ok := backend.Lookup("cgra")
	if !ok {
		t.Fatal("cgra backend not registered")
	}
	if err := be.ValidateOptions(nil); err == nil {
		t.Fatal("ValidateOptions accepted a config without a grid")
	}
}

func TestResetMatchesNew(t *testing.T) {
	for _, grid := range []string{"5x5", "8x8"} {
		t.Run(grid, func(t *testing.T) {
			backendtest.ResetMatchesNew(t, "cgra", backend.Opt("grid", grid))
		})
	}
}
