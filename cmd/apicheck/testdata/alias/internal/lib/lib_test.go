package lib

import (
	"testing"

	"fix/internal/fake"
)

func TestMethod(t *testing.T) {
	if New().Method() != 1 || fake.Broken() == nil {
		t.Fatal("Method")
	}
}
