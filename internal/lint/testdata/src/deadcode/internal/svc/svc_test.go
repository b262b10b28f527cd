package svc

import (
	"testing"

	"fix/internal/svctest"
)

func TestOnlyTests(t *testing.T) {
	OnlyTests()
	svctest.Helper()
}
