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
	sp, fork, _, err := m.PreviewSpread(v, loc, MineOptions{})
	if err != nil {
		t.Fatalf("preview: %v", err)
	}
	return fork, sp
}

// Commit publishes the state live CommitLocation + CommitSpread
// publish, whichever way it gets there. Three miners commit each
// iteration's location and previewed spread with Commit: one passes a
// fresh preview of its published version (adopted), one a stale
// preview of a version it no longer publishes (ignored: Commit forks
// the published version), one no preview. A twin commits both legs
// live. After every iteration all four must agree and mine the
// identical next pattern.
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
			miner := func() *Miner {
				m, err := NewMiner(tc.ds, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			fresh, stale, none, twin := miner(), miner(), miner(), miner()
			// The stale arm's first preview forks a version of the model
			// a Reset replaced: published once, published no longer.
			old := stale.Snapshot()
			if err := stale.Reset(); err != nil {
				t.Fatal(err)
			}
			loc, _, err := fresh.MineLocation()
			if err != nil {
				t.Fatal(err)
			}
			for it := 1; it <= 6; it++ {
				tag := func(arm string) string { return fmt.Sprintf("iteration %d %s", it, arm) }
				preview, sp := previewFork(t, fresh, fresh.Snapshot(), loc)
				stalePreview, _ := previewFork(t, stale, old, loc)
				old = stale.Snapshot()

				// A spread the refit cannot enforce must fail the same way
				// on every arm, and commit nothing there; the twin's
				// location leg then has a live twin on each arm.
				if err := twin.CommitLocation(loc); err != nil {
					t.Fatalf("%s: %v", tag("twin location"), err)
				}
				want := errText(twin.CommitSpread(sp))
				arms := []struct {
					name    string
					m       *Miner
					preview *Miner
				}{{"fresh", fresh, preview}, {"stale", stale, stalePreview}, {"none", none, nil}}
				for _, a := range arms {
					before := a.m.Snapshot()
					if got := errText(a.m.Commit(loc, sp, a.preview)); got != want {
						t.Fatalf("%s: commit %q, twin %q", tag(a.name), got, want)
					}
					if want != "" {
						if a.m.Snapshot() != before {
							t.Fatalf("%s: a failed commit published a version", tag(a.name))
						}
						if err := a.m.Commit(loc, nil, nil); err != nil {
							t.Fatalf("%s: location alone: %v", tag(a.name), err)
						}
					}
					requireTwins(t, tag(a.name), a.m, twin)
				}
				if want == "" && preview.Snapshot() != nil {
					t.Fatalf("%s: the fresh preview was not adopted", tag("fresh"))
				}
				if stalePreview.Snapshot() == nil {
					t.Fatalf("%s: a stale preview was adopted", tag("stale"))
				}

				next, _, err := twin.MineLocation()
				if err != nil {
					t.Fatalf("%s: %v", tag("twin mine"), err)
				}
				for _, a := range arms {
					got, _, err := a.m.MineLocation()
					if err != nil {
						t.Fatalf("%s: mine: %v", tag(a.name), err)
					}
					if a, b := locKey(tc.ds, got), locKey(tc.ds, next); a != b {
						t.Fatalf("%s: next mine differs:\n%s\n%s", tag("next"), a, b)
					}
				}
				loc = next
			}
		})
	}
}

// Model.Adopt refuses every fork that is not one or more commits
// ahead of the published version, and a refusal changes nothing on
// either side: the live model keeps its version and the fork stays
// usable. A fork k commits ahead of the published version is adopted,
// whatever it committed, as one version k stamps ahead.
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
		if m.Model.Adopt(fork.Model) {
			t.Fatalf("%s: adopted", tag)
		}
		if m.Snapshot() != before || m.Iteration() != iter {
			t.Fatalf("%s: a refused adoption changed the miner", tag)
		}
		if fork.Snapshot() == nil {
			t.Fatalf("%s: a refused adoption killed the fork", tag)
		}
	}
	// adopt requires a fresh miner to adopt the fork build makes of its
	// published version, k stamps ahead.
	adopt := func(tag string, k uint64, build func(a *Miner, v *background.ModelVersion) *Miner) {
		t.Helper()
		a, _ := synMiner(t)
		v := a.Snapshot()
		fork := build(a, v)
		if !a.Model.Adopt(fork.Model) {
			t.Fatalf("%s: refused", tag)
		}
		if got := a.Snapshot().Version(); got != v.Version()+k {
			t.Fatalf("%s: version %d, want %d", tag, got, v.Version()+k)
		}
		if fork.Snapshot() != nil {
			t.Fatalf("%s: the adopted fork still publishes a version", tag)
		}
	}

	// No commit on the fork is refused; two location commits are adopted.
	refuse("fork advanced by 0", m.ForkAt(v0))
	idx := make([]int, 0, syn.DS.N()/2)
	for i := 0; i < syn.DS.N(); i += 2 {
		idx = append(idx, i)
	}
	other := bitset.FromIndices(syn.DS.N(), idx)
	adopt("fork advanced by 2", 2, func(a *Miner, v *background.ModelVersion) *Miner {
		two := a.ForkAt(v)
		if err := two.CommitLocation(loc); err != nil {
			t.Fatal(err)
		}
		if err := two.Model.CommitLocation(other, pattern.SubgroupMean(syn.DS.Y, other)); err != nil {
			t.Fatal(err)
		}
		return two
	})

	// A location then a spread is two commits too.
	adopt("fork advanced by location and spread", 2, func(a *Miner, v *background.ModelVersion) *Miner {
		loSp, sp := previewFork(t, a, v, loc)
		if err := loSp.CommitSpread(sp); err != nil {
			t.Fatal(err)
		}
		return loSp
	})

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

	// A fork whose single commit is a spread, not a location, is adopted:
	// Adopt does not check what a fork committed.
	adopt("fork that committed a spread", 1, func(a *Miner, v *background.ModelVersion) *Miner {
		spreadOnly := a.ForkAt(v)
		sp, err := spreadOnly.MineSpread(loc)
		if err != nil {
			t.Fatal(err)
		}
		if err := spreadOnly.CommitSpread(sp); err != nil {
			t.Fatal(err)
		}
		return spreadOnly
	})

	// The fresh preview of the published version is still adopted.
	fresh, _ := previewFork(t, m, m.Snapshot(), next)
	if !m.Model.Adopt(fresh.Model) {
		t.Fatal("a fresh preview fork was refused")
	}
}
