package lib

import "testing"

func TestStats(t *testing.T) {
	if (T{}).Stats() != 2 {
		t.Fatal("Stats")
	}
}
