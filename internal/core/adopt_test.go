package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/background"
	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/search"
	"repro/internal/si"
)

// requireTwins fails unless two miners hold the same belief state bit
// for bit: parameter digest, version stamp, labeling, group count and
// iteration count.
func requireTwins(t *testing.T, tag string, a, b *Miner) {
	t.Helper()
	va, vb := a.Snapshot(), b.Snapshot()
	switch {
	case va.Digest() != vb.Digest():
		t.Fatalf("%s: digest %x, twin %x", tag, va.Digest(), vb.Digest())
	case va.Version() != vb.Version():
		t.Fatalf("%s: version %d, twin %d", tag, va.Version(), vb.Version())
	case !slices.Equal(va.Labels(), vb.Labels()):
		t.Fatalf("%s: labels differ from the twin's", tag)
	case va.NumGroups() != vb.NumGroups():
		t.Fatalf("%s: %d groups, twin %d", tag, va.NumGroups(), vb.NumGroups())
	case a.Iteration() != b.Iteration():
		t.Fatalf("%s: iteration %d, twin %d", tag, a.Iteration(), b.Iteration())
	}
}

// errText renders an error for comparison, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// previewFork is the server's spread preview: fork the pinned version,
// commit the location on the fork and mine the spread there.
func previewFork(t *testing.T, m *Miner, v *background.ModelVersion, loc *pattern.Location) (*Miner, *pattern.Spread) {
	t.Helper()
	fork := m.ForkAt(v)
	if err := fork.Model.CommitLocation(loc.Extension, loc.Mean); err != nil {
		t.Fatalf("preview commit: %v", err)
	}
	sp, _, err := fork.MineSpreadBudget(loc)
	if err != nil {
		t.Fatalf("preview spread: %v", err)
	}
	return fork, sp
}

// Adopting a spread preview's fork commits the location to exactly the
// state CommitLocation computes. Each iteration commits the mined
// location by adoption on one miner and by CommitLocation on a twin,
// then the previewed spread on both; the two must agree after each leg
// and mine the identical next pattern.
func TestAdoptLocationMatchesCommitLocation(t *testing.T) {
	water := gen.WaterQualityLike(gen.SeedWater).DS
	cases := []struct {
		name string
		ds   *dataset.Dataset
		cfg  Config
	}{
		{"water/depth1", water, Config{Search: search.Params{MaxDepth: 1, TopK: 1}}},
		{"water/depth2", water, Config{Search: search.Params{MaxDepth: 2, BeamWidth: 8, TopK: 1}}},
		{"synthetic", gen.Synthetic620(gen.SeedSynthetic).DS, Config{
			SI:     si.Params{Gamma: 0.5, Eta: 1},
			Search: search.Params{MaxDepth: 2, TopK: 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			adopt, err := NewMiner(tc.ds, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewMiner(tc.ds, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			loc, _, err := adopt.MineLocation()
			if err != nil {
				t.Fatal(err)
			}
			for it := 1; it <= 6; it++ {
				fork, sp := previewFork(t, adopt, adopt.Snapshot(), loc)
				if !adopt.AdoptLocation(fork) {
					t.Fatalf("iteration %d: a fresh preview fork was refused", it)
				}
				if fork.Snapshot() != nil {
					t.Fatalf("iteration %d: the adopted fork still publishes a version", it)
				}
				if err := twin.CommitLocation(loc); err != nil {
					t.Fatalf("iteration %d: twin location: %v", it, err)
				}
				requireTwins(t, fmt.Sprintf("iteration %d location", it), adopt, twin)

				// A spread the refit cannot enforce must fail the same way
				// on both; the rolled-back models stay twins.
				ea, eb := adopt.CommitSpread(sp), twin.CommitSpread(sp)
				if errText(ea) != errText(eb) {
					t.Fatalf("iteration %d: spread commit %v, twin %v", it, ea, eb)
				}
				requireTwins(t, fmt.Sprintf("iteration %d spread", it), adopt, twin)

				next, _, err := adopt.MineLocation()
				if err != nil {
					t.Fatalf("iteration %d: mine: %v", it, err)
				}
				twinNext, _, err := twin.MineLocation()
				if err != nil {
					t.Fatalf("iteration %d: twin mine: %v", it, err)
				}
				if a, b := locKey(tc.ds, next), locKey(tc.ds, twinNext); a != b {
					t.Fatalf("iteration %d: next mine differs:\n%s\n%s", it, a, b)
				}
				loc = next
			}
		})
	}
}

// AdoptLocation refuses every fork that is not one location commit
// ahead of the published version, and a refusal changes nothing on
// either side: the live model keeps its version and the fork stays
// usable.
func TestAdoptLocationRefusals(t *testing.T) {
	m, syn := synMiner(t)
	twin, _ := synMiner(t)
	v0 := m.Snapshot()
	loc, _, err := m.MineAt(v0, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refuse := func(tag string, fork *Miner) {
		t.Helper()
		before, iter := m.Snapshot(), m.Iteration()
		if m.AdoptLocation(fork) {
			t.Fatalf("%s: adopted", tag)
		}
		if m.Snapshot() != before || m.Iteration() != iter {
			t.Fatalf("%s: a refused adoption changed the miner", tag)
		}
		if fork.Snapshot() == nil {
			t.Fatalf("%s: a refused adoption killed the fork", tag)
		}
	}

	// No commit on the fork, and two location commits.
	refuse("fork advanced by 0", m.ForkAt(v0))
	two := m.ForkAt(v0)
	idx := make([]int, 0, syn.DS.N()/2)
	for i := 0; i < syn.DS.N(); i += 2 {
		idx = append(idx, i)
	}
	other := bitset.FromIndices(syn.DS.N(), idx)
	if err := two.CommitLocation(loc); err != nil {
		t.Fatal(err)
	}
	if err := two.Model.CommitLocation(other, pattern.SubgroupMean(syn.DS.Y, other)); err != nil {
		t.Fatal(err)
	}
	refuse("fork advanced by 2", two)

	// A location then a spread is two commits too.
	loSp, sp := previewFork(t, m, v0, loc)
	if err := loSp.CommitSpread(sp); err != nil {
		t.Fatal(err)
	}
	refuse("fork advanced by location and spread", loSp)

	// A fork of a version of another model: same version number, same
	// (empty) constraint prefix, different lineage.
	foreign, _ := previewFork(t, twin, twin.Snapshot(), loc)
	refuse("fork of another model", foreign)

	// A stale base: another commit lands between the preview and the
	// commit. The fallback then computes the same state as on a twin.
	stale, _ := previewFork(t, m, v0, loc)
	if err := m.CommitLocation(loc); err != nil {
		t.Fatal(err)
	}
	if err := twin.CommitLocation(loc); err != nil {
		t.Fatal(err)
	}
	v1 := m.Snapshot()
	next, _, err := m.MineAt(v1, MineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	stale2, _ := previewFork(t, m, v1, next)
	refuse("stale base", stale)
	if err := m.CommitLocation(next); err != nil {
		t.Fatal(err)
	}
	if err := twin.CommitLocation(next); err != nil {
		t.Fatal(err)
	}
	requireTwins(t, "fallback after a stale base", m, twin)

	// A fork of an older version of the same model, one location ahead
	// of that version.
	refuse("fork of an older version", stale2)

	// A fork whose single commit is a spread, not a location.
	v2 := m.Snapshot()
	spreadOnly := m.ForkAt(v2)
	sp2, err := spreadOnly.MineSpread(next)
	if err != nil {
		t.Fatal(err)
	}
	if err := spreadOnly.CommitSpread(sp2); err != nil {
		t.Fatal(err)
	}
	refuse("fork that committed a spread", spreadOnly)

	// The fresh preview of the published version is still adopted.
	fresh, _ := previewFork(t, m, v2, next)
	if !m.AdoptLocation(fresh) {
		t.Fatal("a fresh preview fork was refused")
	}
}
