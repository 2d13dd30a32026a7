package engine_test

import (
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
)

// TestNewLanguageAllocBudget pins what a condition-language build
// allocates on the crime replica (n=1994, 122 numeric descriptors, 4
// split points): the conditions and extensions it keeps, plus one 2n
// selection scratch shared by every column's split points. That is
// about 0.4 MB; a selection buffer per column would add 32 KB for each
// of the 122 columns (about 4.4 MB in all).
func TestNewLanguageAllocBudget(t *testing.T) {
	ds := gen.CrimeLike(gen.SeedCrime).DS
	const runs = 3
	const maxBytes = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() { engine.NewLanguage(ds, 4) })
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun adds a warm-up call
	t.Logf("%.0f allocs, %d bytes (max %d) per build", allocs, perBuild, maxBytes)
	if perBuild > maxBytes {
		t.Errorf("NewLanguage allocated %d bytes per build, want at most %d", perBuild, maxBytes)
	}
}
