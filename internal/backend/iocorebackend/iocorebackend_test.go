package iocorebackend_test

import (
	"testing"

	"distda/internal/backend/backendtest"
)

func TestConformance(t *testing.T) {
	backendtest.Conformance(t, "iocore")
}

func TestResetMatchesNew(t *testing.T) {
	backendtest.ResetMatchesNew(t, "iocore")
}
