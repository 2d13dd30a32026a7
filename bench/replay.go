package main

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/background"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/si"
	"repro/internal/spreadopt"
)

// The oracle replays sampled sessions through the library calls the
// server makes for them — core.NewMiner, si.NewLocationScorer +
// search.Beam, ForkAt + spreadopt.Optimize, CommitLocation/CommitSpread,
// and SaveJSON/LoadJSONExact around a handoff — at Parallelism 1, and
// requires the server's answers to match exactly: intention, size, SI
// (float64 equality), spread SI and modelVersion. The server mines at
// GOMAXPROCS, so this also checks end to end that results do not depend
// on parallelism. Each call is timed; those timings are the per-layer
// metrics of the library layers, and at Parallelism 1 the counts repeat
// exactly.

// replay is the oracle's outcome over all sampled sessions.
type replay struct {
	sessions, steps, badSteps int
	mismatches                []string
	samples                   map[string][]float64 // layer metric → one sample per call
	// The replay's time on each request's blocking path, for the ledger.
	// Store calls are not replayed; the ledger adds the traced run's.
	minePaths   []minePath
	commitPaths []float64
}

type minePath struct {
	ms      float64
	restore bool // the mine restored the session from the store first
}

func (r *replay) merge(o *replay) {
	r.sessions += o.sessions
	r.steps += o.steps
	r.badSteps += o.badSteps
	r.mismatches = append(r.mismatches, o.mismatches...)
	for k, v := range o.samples {
		r.samples[k] = append(r.samples[k], v...)
	}
	r.minePaths = append(r.minePaths, o.minePaths...)
	r.commitPaths = append(r.commitPaths, o.commitPaths...)
}

// replayAll replays the sampled sessions, as many at once as the timed
// window had users; each replay itself is serial.
func replayAll(w workload, recs []*sessionRec) *replay {
	all := &replay{samples: map[string][]float64{}}
	work := make(chan *sessionRec)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rec := range work {
				r := replaySession(w, rec)
				mu.Lock()
				all.merge(r)
				mu.Unlock()
			}
		}()
	}
	for _, rec := range recs {
		if rec != nil && len(rec.steps) > 0 {
			work <- rec
		}
	}
	close(work)
	wg.Wait()
	return all
}

// buildDataset mirrors the server's builtin datasets: deterministic in
// (name, seed), with seed 0 meaning 1.
func buildDataset(req server.CreateRequest) (*dataset.Dataset, error) {
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	switch strings.ToLower(req.Dataset) {
	case "synthetic":
		return gen.Synthetic620(seed).DS, nil
	case "crime":
		return gen.CrimeLike(seed).DS, nil
	case "water":
		return gen.WaterQualityLike(seed).DS, nil
	}
	return nil, fmt.Errorf("dataset %q is not used by any workload", req.Dataset)
}

func minerConfig(req server.CreateRequest) core.Config {
	return core.Config{
		Search: search.Params{
			BeamWidth:   req.BeamWidth,
			MaxDepth:    req.Depth,
			TopK:        req.TopK,
			MinSupport:  req.MinSupport,
			NumSplits:   req.NumSplits,
			Parallelism: 1,
		},
		Spread: spreadopt.Params{PairSparse: req.PairSparse, Parallelism: 1},
	}
}

type sessionReplay struct {
	*replay
	id  string
	bad bool // the current step mismatched
}

// since records the milliseconds elapsed since t under name and
// returns them.
func (r *sessionReplay) since(name string, t time.Time) float64 {
	ms := float64(time.Since(t)) / float64(time.Millisecond)
	r.add(name, ms)
	return ms
}

func (r *sessionReplay) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

func (r *sessionReplay) check(it int, what string, server, replay any) {
	if server != replay {
		r.mismatch(it, fmt.Sprintf("%s: server %v, replay %v", what, server, replay))
	}
}

// mismatch records a disagreement; a step counts once however many of
// its fields disagree.
func (r *sessionReplay) mismatch(it int, msg string) {
	if !r.bad {
		r.badSteps++
		r.bad = true
	}
	r.mismatches = append(r.mismatches, fmt.Sprintf("%s iteration %d: %s", r.id, it+1, msg))
}

func (r *sessionReplay) fail(it int, err error) *replay {
	r.mismatch(it, "replay: "+err.Error())
	return r.replay
}

func replaySession(w workload, rec *sessionRec) *replay {
	r := &sessionReplay{replay: &replay{sessions: 1, samples: map[string][]float64{}}, id: rec.create.ID}
	req, cfg := rec.create, minerConfig(rec.create)
	open := func() (*core.Miner, float64, error) {
		t := time.Now()
		ds, err := buildDataset(req)
		ms := r.since("gen.dataset_ms", t)
		if err != nil {
			return nil, ms, err
		}
		t = time.Now()
		m, err := core.NewMiner(ds, cfg)
		return m, ms + r.since("core.new_miner_ms", t), err
	}
	m, _, err := open() // the create request's work
	if err != nil {
		return r.fail(0, err)
	}
	defer func() { engine.EvictLanguage(m.DS) }()

	var saved []byte // the model snapshot the last commit persisted
	for it, st := range rec.steps {
		r.steps++
		r.bad = false
		mine := minePath{}
		if w.churn && it == 1 {
			// The handoff evicted the session: this mine restores it from
			// the store, rebuilding dataset and miner and loading the
			// model exactly, as the server's restore-on-miss does.
			restored, ms, err := open()
			if err != nil {
				return r.fail(it, err)
			}
			t := time.Now()
			model, err := background.LoadJSONExact(bytes.NewReader(saved))
			ms += r.since("background.load_exact_ms", t)
			if err == nil {
				err = restored.Restore(model, m.Iteration())
			}
			if err != nil {
				return r.fail(it, err)
			}
			engine.EvictLanguage(m.DS)
			m = restored
			mine.ms += ms
			mine.restore = true
		}
		if it == 0 || (w.churn && it == 1) {
			// A dataset's first search builds its condition language.
			engine.EvictLanguage(m.DS)
			t := time.Now()
			lang := engine.LanguageFor(m.DS, cfg.Search.NumSplits)
			mine.ms += r.since("engine.language_build_ms", t)
			r.add("engine.conditions", float64(len(lang.Conds)))
		}

		v := m.Snapshot()
		r.add("background.groups", float64(v.NumGroups()))
		r.add("background.constraints", float64(v.NumConstraints()))
		t := time.Now()
		sc, err := si.NewLocationScorer(v, m.DS.Y, m.Cfg.SI)
		mine.ms += r.since("si.scorer_new_ms", t)
		if err != nil {
			return r.fail(it, err)
		}
		t = time.Now()
		res := search.Beam(m.DS, sc, m.Cfg.Search)
		beamMS := r.since("search.beam_ms", t)
		mine.ms += beamMS
		r.add("search.evaluated", float64(res.Evaluated))
		r.add("search.bound_evals", float64(res.BoundEvals))
		r.add("search.pruned", float64(res.Pruned))
		r.add("search.evals_per_ms", float64(res.Evaluated)/beamMS)
		top := res.Top()
		if top == nil {
			return r.fail(it, core.ErrNoPattern)
		}
		loc := &pattern.Location{
			Intention: top.Intention, Extension: top.Extension, Mean: top.Mean,
			IC: top.IC, DL: m.Cfg.SI.DL(len(top.Intention), false), SI: top.SI,
		}
		got := st.mine
		r.check(it, "modelVersion", got.ModelVersion, v.Version())
		r.check(it, "intention", got.Location.Intention, loc.Intention.Format(m.DS))
		r.check(it, "size", got.Location.Size, loc.Size())
		r.check(it, "SI", got.Location.SI, loc.SI)

		var sp *pattern.Spread
		if w.spread {
			t = time.Now()
			preview := m.ForkAt(v)
			mine.ms += r.since("core.fork_ms", t)
			t = time.Now()
			err := preview.Model.CommitLocation(loc.Extension, loc.Mean)
			mine.ms += r.since("background.preview_commit_ms", t)
			if err != nil {
				return r.fail(it, err)
			}
			t = time.Now()
			opt, err := spreadopt.Optimize(preview.Model, m.DS.Y, loc.Extension, loc.Mean, len(loc.Intention), m.Cfg.SI, m.Cfg.Spread)
			mine.ms += r.since("spreadopt.optimize_ms", t)
			if err != nil {
				return r.fail(it, err)
			}
			r.add("spreadopt.starts", float64(opt.Starts))
			sp = &pattern.Spread{
				Intention: loc.Intention, Extension: loc.Extension, Center: loc.Mean,
				W: opt.W, Variance: opt.Variance, IC: opt.IC,
				DL: m.Cfg.SI.DL(len(loc.Intention), true), SI: opt.SI,
			}
			r.check(it, "spread SI", got.Spread.SI, sp.SI)
		}
		r.minePaths = append(r.minePaths, mine)

		if !st.committed {
			break
		}
		t = time.Now()
		err = m.CommitLocation(loc)
		commit := r.since("background.commit_location_ms", t)
		if err == nil && sp != nil {
			t = time.Now()
			err = m.CommitSpread(sp)
			commit += r.since("background.commit_spread_ms", t)
		}
		if err != nil {
			return r.fail(it, err)
		}
		r.check(it, "commit modelVersion", st.commit.ModelVersion, m.Snapshot().Version())
		r.check(it, "commit iterations", st.commit.Iterations, m.Iteration())

		// The commit persists a sealed snapshot of the published model.
		var buf bytes.Buffer
		t = time.Now()
		err = m.Snapshot().SaveJSON(&buf)
		commit += r.since("background.save_json_ms", t)
		if err != nil {
			return r.fail(it, err)
		}
		t = time.Now()
		snap := &server.Snapshot{ID: r.id, Model: buf.Bytes()}
		snap.Seal()
		commit += r.since("server.seal_ms", t)
		saved = snap.Model
		r.commitPaths = append(r.commitPaths, commit)

		// Restoring this snapshot must give back the same model.
		t = time.Now()
		back, err := background.LoadJSONExact(bytes.NewReader(saved))
		r.since("background.load_exact_ms", t)
		var again bytes.Buffer
		if err == nil {
			err = back.SaveJSON(&again)
		}
		if err != nil {
			return r.fail(it, err)
		}
		r.check(it, "snapshot restores byte-identically", bytes.Equal(again.Bytes(), buf.Bytes()), true)
	}
	return r.replay
}
