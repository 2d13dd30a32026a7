package jobs

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// BenchmarkSubmitRetained times Submit → Wait of a no-op job with the
// retention cap already full of finished jobs, so every Submit also
// evicts one: the per-mine bookkeeping cost of a long-lived server.
// The 10 000 arm raises the cap past the default 1024 to show how that
// cost grows with the number of retained jobs.
func BenchmarkSubmitRetained(b *testing.B) {
	noop := func(context.Context, func(string)) (any, error) { return nil, nil }
	for _, retained := range []int{1024, 10000} {
		b.Run(fmt.Sprintf("retained=%d", retained), func(b *testing.B) {
			p := NewPool(1, 64)
			defer p.Close()
			p.maxDone = retained
			submitWait := func() {
				j, err := p.Submit("noop", 0, noop, nil)
				if err != nil {
					b.Fatal(err)
				}
				if inf, _ := p.Wait(context.Background(), j.ID(), time.Minute); inf.Status != StatusDone {
					b.Fatalf("job %s: %s", j.ID(), inf.Status)
				}
			}
			for range retained {
				submitWait()
			}
			b.ReportAllocs()
			for b.Loop() {
				submitWait()
			}
		})
	}
}

// BenchmarkStatsRetained times Stats, the readiness probe's read, with
// 1024 finished jobs retained: the running count is kept as jobs start
// and finish, so the retained jobs cost it nothing.
func BenchmarkStatsRetained(b *testing.B) {
	noop := func(context.Context, func(string)) (any, error) { return nil, nil }
	p := NewPool(1, 64)
	defer p.Close()
	for range 1024 {
		j, err := p.Submit("noop", 0, noop, nil)
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
	}
	b.ReportAllocs()
	for b.Loop() {
		if st := p.Stats(); st.Running != 0 {
			b.Fatalf("Running = %d", st.Running)
		}
	}
}
