package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/background"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/search"
	"repro/internal/si"
)

// locKey renders a mined location with exact (hex) float formatting, so
// equality of keys is byte-identity of the result.
func locKey(ds *dataset.Dataset, loc *pattern.Location) string {
	if loc == nil {
		return "none"
	}
	return fmt.Sprintf("%s|%v|%x|%x|%x|%x",
		loc.Intention.Format(ds), loc.Extension.Indices(),
		loc.SI, loc.IC, loc.DL, loc.Mean)
}

// The determinism contract of the versioned model: a mine pinned to
// version v returns byte-identical results no matter how many commits
// land while it runs. W miners race a stream of commits on one shared
// miner (run under -race this is also the lock-freedom check), then
// every recorded result is reproduced serially against its version.
func TestMineAtDeterministicUnderCommits(t *testing.T) {
	widths := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, workers := range widths {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			syn := gen.Synthetic620(gen.SeedSynthetic)
			m, err := NewMiner(syn.DS, Config{
				SI:     si.Params{Gamma: 0.5, Eta: 1},
				Search: search.Params{MaxDepth: 2, BeamWidth: 8},
			})
			if err != nil {
				t.Fatalf("NewMiner: %v", err)
			}
			type rec struct {
				v   *background.ModelVersion
				got string
			}
			var (
				recMu sync.Mutex
				recs  []rec
			)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// The first iteration always runs — on a fast machine
					// the commit stream can finish before this goroutine
					// is scheduled, and the test needs every worker to
					// contribute at least one recorded mine.
					for i := 0; ; i++ {
						if i > 0 {
							select {
							case <-stop:
								return
							default:
							}
						}
						v := m.Snapshot()
						loc, _, err := m.MineAt(v, MineOptions{})
						if err != nil && !errors.Is(err, ErrNoPattern) {
							t.Errorf("MineAt(v%d): %v", v.Version(), err)
							return
						}
						recMu.Lock()
						recs = append(recs, rec{v, locKey(syn.DS, loc)})
						recMu.Unlock()
					}
				}()
			}
			// The commit stream: serial mine+commit on the live model,
			// publishing a new version each round while the racers mine.
			for i := 0; i < 3; i++ {
				loc, _, err := m.MineAt(m.Snapshot(), MineOptions{})
				if errors.Is(err, ErrNoPattern) {
					break
				}
				if err != nil {
					t.Fatalf("commit-stream mine %d: %v", i, err)
				}
				if err := m.CommitLocation(loc); err != nil {
					t.Fatalf("commit %d: %v", i, err)
				}
			}
			close(stop)
			wg.Wait()
			if t.Failed() {
				return
			}
			if len(recs) == 0 {
				t.Fatal("no racing mine completed")
			}
			// Serial replay: the pinned version fully determines the result.
			versions := map[uint64]bool{}
			for _, r := range recs {
				versions[r.v.Version()] = true
				loc, _, err := m.MineAt(r.v, MineOptions{})
				if err != nil && !errors.Is(err, ErrNoPattern) {
					t.Fatalf("replay MineAt(v%d): %v", r.v.Version(), err)
				}
				if got := locKey(syn.DS, loc); got != r.got {
					t.Fatalf("mine at version %d not reproducible:\nracing: %s\nserial: %s",
						r.v.Version(), r.got, got)
				}
			}
			t.Logf("replayed %d mines across %d distinct versions", len(recs), len(versions))
		})
	}
}

// A spread preview forked from a pinned version must also be
// deterministic and leave the live model untouched.
func TestForkAtSpreadPreviewDeterministic(t *testing.T) {
	m, syn := synMiner(t)
	v := m.Snapshot()
	loc, _, err := m.MineAt(v, MineOptions{})
	if err != nil {
		t.Fatalf("MineAt: %v", err)
	}
	preview := func() string {
		sp, _, _, err := m.PreviewSpread(v, loc, MineOptions{})
		if err != nil {
			t.Fatalf("PreviewSpread: %v", err)
		}
		return fmt.Sprintf("%s|%x|%x", sp.Intention.Format(syn.DS), sp.W, sp.Variance)
	}
	first := preview()
	if again := preview(); again != first {
		t.Fatalf("spread preview not deterministic:\n%s\n%s", first, again)
	}
	if m.Model.NumConstraints() != 0 || m.Snapshot() != v {
		t.Fatal("spread preview mutated the live model")
	}
	if m.Iteration() != 0 {
		t.Fatalf("preview advanced the iteration counter to %d", m.Iteration())
	}
}
