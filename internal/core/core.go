// Package core implements the paper's primary contribution end to end:
// the iterative, subjectively interesting subgroup discovery loop of
// Problem 1. A Miner owns a dataset and an evolving FORSIED background
// model; each iteration finds the location pattern with maximal SI by
// beam search, optionally finds the most informative spread direction
// for it by gradient ascent on the unit sphere (the two-step procedure
// of §II-D), and commits the shown patterns back into the background
// model so subsequent iterations surface non-redundant patterns.
package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/background"
	"repro/internal/dataset"
	"repro/internal/mat"
	"repro/internal/pattern"
	"repro/internal/search"
	"repro/internal/si"
	"repro/internal/spreadopt"
	"repro/internal/stats"
)

// Config bundles all mining parameters. Zero values are completed with
// the paper's defaults.
type Config struct {
	// SI holds the description length coefficients (γ, η).
	SI si.Params
	// Search configures the beam (width 40, depth 4, top-150, 4 split
	// points — the paper's Cortana settings) and the evaluation-engine
	// options threaded through to internal/engine: Parallelism bounds
	// the scoring workers (and scratch bitsets) per search, Deadline
	// caps each search's wall time.
	Search search.Params
	// Spread configures the direction optimizer.
	Spread spreadopt.Params
	// PriorMean/PriorCov override the initial background beliefs; when
	// nil the empirical mean and covariance of the targets are used, as
	// in all the paper's experiments.
	PriorMean mat.Vec
	PriorCov  *mat.Dense
	// Ridge is added to the prior covariance diagonal if it is not
	// positive definite (e.g. a constant target column).
	Ridge float64
}

func (c Config) withDefaults() Config {
	if c.SI == (si.Params{}) {
		c.SI = si.Default()
	}
	if c.Ridge <= 0 {
		c.Ridge = 1e-8
	}
	return c
}

// Miner is the iterative subgroup discovery engine.
//
// Concurrency: the mutating methods (Commit*, Step, Reset, Restore)
// belong to a single writer, but any number of goroutines may mine
// concurrently with that writer by pinning a published model version:
// Snapshot returns the current immutable *background.ModelVersion and
// MineAt, PreviewSpread, ExplainLocationAt and ForkAt evaluate against
// the version they are given, never touching the live model. A mine
// against a version is byte-identical regardless of concurrent commits.
type Miner struct {
	DS    *dataset.Dataset
	Model *background.Model
	Cfg   Config

	// iteration counts committed mining iterations; atomic so Iteration
	// stays readable while a commit is in flight on the writer.
	iteration atomic.Int64
}

// ErrNoPattern is returned when the search yields no scoreable pattern.
var ErrNoPattern = errors.New("core: no pattern found")

// NewMiner builds a miner whose initial background distribution is the
// MaxEnt model matching the prior mean and covariance (empirical values
// of the full data unless overridden in cfg).
func NewMiner(ds *dataset.Dataset, cfg Config) (*Miner, error) {
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg = cfg.withDefaults()
	if err := cfg.SI.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	mu := cfg.PriorMean
	if mu == nil {
		mu = stats.MeanVec(ds.Y, nil)
	}
	cov := cfg.PriorCov
	if cov == nil {
		cov = stats.CovMat(ds.Y, nil)
	}
	if len(mu) != ds.Dy() || cov.R != ds.Dy() {
		return nil, fmt.Errorf("core: prior dimensions do not match %d targets", ds.Dy())
	}
	model, err := background.New(ds.N(), mu, cov)
	if err != nil {
		// Degenerate empirical covariance: regularize with a ridge.
		ridged := cov.Clone()
		for i := 0; i < ridged.R; i++ {
			ridged.Set(i, i, ridged.At(i, i)+cfg.Ridge)
		}
		model, err = background.New(ds.N(), mu, ridged)
		if err != nil {
			return nil, fmt.Errorf("core: prior covariance unusable: %w", err)
		}
	}
	return &Miner{DS: ds, Model: model, Cfg: cfg}, nil
}

// Iteration returns the number of committed mining iterations. Safe
// for concurrent callers.
func (m *Miner) Iteration() int { return int(m.iteration.Load()) }

// Snapshot returns the most recently published immutable version of
// the miner's background model. Safe for concurrent callers; pass the
// result to the *At methods to mine against a pinned belief state.
func (m *Miner) Snapshot() *background.ModelVersion { return m.Model.Snapshot() }

// Reset discards every committed pattern and restores the initial
// belief state (the same prior the miner was constructed with), so an
// interactive session can start over without rebuilding the miner.
func (m *Miner) Reset() error {
	fresh, err := NewMiner(m.DS, m.Cfg)
	if err != nil {
		return err
	}
	m.Model = fresh.Model
	m.iteration.Store(0)
	return nil
}

// Restore replaces the miner's belief state with a previously saved
// model (see background.SaveJSON / LoadJSONExact) and the number of
// committed iterations that state represents. Dimensions must match
// the miner's dataset. Used by the façade's RestoreOptions.SavedModel:
// a restored miner continues the interactive loop exactly where the
// saved model left off.
func (m *Miner) Restore(model *background.Model, iteration int) error {
	if model.N() != m.DS.N() || model.D() != m.DS.Dy() {
		return fmt.Errorf("core: restored model is %d×%d, dataset is %d×%d",
			model.N(), model.D(), m.DS.N(), m.DS.Dy())
	}
	if iteration < 0 {
		return fmt.Errorf("core: negative iteration count %d", iteration)
	}
	m.Model = model
	m.iteration.Store(int64(iteration))
	return nil
}

// ForkAt returns an independent miner whose belief state starts at
// exactly the given version — the what-if primitive behind spread
// previews (PreviewSpread): commit speculatively on the fork, evaluate,
// then discard it or let Commit adopt it. The fork shares the dataset
// and config; its model is a copy-on-write fork of v, so building it is
// cheap and the source miner is never affected.
func (m *Miner) ForkAt(v *background.ModelVersion) *Miner {
	fm := &Miner{DS: m.DS, Model: v.Fork(), Cfg: m.Cfg}
	fm.iteration.Store(m.iteration.Load())
	return fm
}

// MineOptions tune one mining call without touching the miner's
// shared Config — the per-call knobs a server thread needs when many
// mines share one miner.
type MineOptions struct {
	// Deadline, when non-zero, overrides Cfg.Search.Deadline for this
	// call only.
	Deadline time.Time
}

// MineLocation runs the beam search under the most recently published
// background model version and returns the best location pattern plus
// the full search log (top-K patterns, the paper logs 150). On
// ErrNoPattern the log is still returned so callers can distinguish an
// exhausted search from one whose deadline expired before anything was
// scored.
func (m *Miner) MineLocation() (*pattern.Location, *search.Results, error) {
	return m.MineAt(m.Snapshot(), MineOptions{})
}

// MineAt is MineLocation against a pinned model version: the search
// reads only v, so it runs lock-free and byte-identically regardless
// of commits happening concurrently on the live model. Safe for any
// number of concurrent callers.
func (m *Miner) MineAt(v *background.ModelVersion, opt MineOptions) (*pattern.Location, *search.Results, error) {
	scorer, err := si.NewLocationScorer(v, m.DS.Y, m.Cfg.SI)
	if err != nil {
		return nil, nil, err
	}
	params := m.Cfg.Search
	if !opt.Deadline.IsZero() {
		params.Deadline = opt.Deadline
	}
	res := search.Beam(m.DS, scorer, params)
	top := res.Top()
	if top == nil {
		return nil, res, ErrNoPattern
	}
	return m.foundToLocation(*top), res, nil
}

func (m *Miner) foundToLocation(f search.Found) *pattern.Location {
	return &pattern.Location{
		Intention: f.Intention,
		Extension: f.Extension,
		Mean:      f.Mean,
		IC:        f.IC,
		DL:        m.Cfg.SI.DL(len(f.Intention), false),
		SI:        f.SI,
	}
}

// ScoreLocationIntention evaluates an arbitrary intention under the
// *current* background model — used to track how the SI of earlier
// patterns collapses across iterations (Table I).
func (m *Miner) ScoreLocationIntention(in pattern.Intention) (*pattern.Location, error) {
	ext := in.Extension(m.DS)
	if ext.Count() == 0 {
		return nil, background.ErrNoPoints
	}
	yhat := pattern.SubgroupMean(m.DS.Y, ext)
	siVal, ic, err := si.LocationSI(m.Model, ext, yhat, len(in), m.Cfg.SI)
	if err != nil {
		return nil, err
	}
	return &pattern.Location{
		Intention: in,
		Extension: ext,
		Mean:      yhat,
		IC:        ic,
		DL:        m.Cfg.SI.DL(len(in), false),
		SI:        siVal,
	}, nil
}

// CommitLocation assimilates a location pattern into the background
// model: the user now knows the subgroup's mean.
func (m *Miner) CommitLocation(loc *pattern.Location) error {
	if err := m.Model.CommitLocation(loc.Extension, loc.Mean); err != nil {
		return err
	}
	m.iteration.Add(1)
	return nil
}

// MineSpread finds the most interesting spread direction for a location
// pattern whose location must already be committed (the paper's
// two-step procedure: the spread of a subgroup is only interpretable
// once its location is known).
func (m *Miner) MineSpread(loc *pattern.Location) (*pattern.Spread, error) {
	sp, _, err := m.mineSpread(loc)
	return sp, err
}

// mineSpread is MineSpread with the engine options threaded through:
// the restart pool inherits the search parallelism, and an active
// Model.Deadline bounds the direction search, which then returns its
// best so far and reports timedOut.
func (m *Miner) mineSpread(loc *pattern.Location) (sp *pattern.Spread, timedOut bool, err error) {
	p := m.Cfg.Spread
	if p.Parallelism <= 0 {
		p.Parallelism = m.Cfg.Search.Parallelism
	}
	if p.Deadline.IsZero() {
		p.Deadline = m.Model.Deadline
	}
	res, err := spreadopt.Optimize(m.Model, m.DS.Y, loc.Extension, loc.Mean,
		len(loc.Intention), m.Cfg.SI, p)
	if err != nil {
		return nil, false, err
	}
	return &pattern.Spread{
		Intention: loc.Intention,
		Extension: loc.Extension,
		Center:    loc.Mean,
		W:         res.W,
		Variance:  res.Variance,
		IC:        res.IC,
		DL:        m.Cfg.SI.DL(len(loc.Intention), true),
		SI:        res.SI,
	}, res.TimedOut, nil
}

// PreviewSpread mines the spread for loc, mined at the pinned version
// v, without committing anything: it commits loc on a ForkAt(v) fork
// and mines the spread there, both under opt.Deadline. It returns the
// spread and the fork, the preview Commit adopts. timedOut reports a
// direction search cut short by the deadline; a location refit cut
// short returns an error wrapping background.ErrDeadline. Safe for
// concurrent callers, like MineAt.
func (m *Miner) PreviewSpread(v *background.ModelVersion, loc *pattern.Location, opt MineOptions) (sp *pattern.Spread, preview *Miner, timedOut bool, err error) {
	preview = m.ForkAt(v)
	preview.Model.Deadline = opt.Deadline
	if err := preview.Model.CommitLocation(loc.Extension, loc.Mean); err != nil {
		return nil, nil, false, err
	}
	sp, timedOut, err = preview.mineSpread(loc)
	if err != nil {
		return nil, nil, false, err
	}
	return sp, preview, timedOut, nil
}

// Commit commits one shown iteration, the location loc and, unless sp
// is nil, its spread sp, under the live model's Deadline. A location
// alone is committed live. A location and its spread are committed on
// preview (PreviewSpread's fork, which holds loc) or, when preview is
// nil or its base is no longer published, on a fresh fork that commits
// loc first; the live model then adopts the fork, publishing once, bit
// for bit what CommitLocation and CommitSpread would publish. The
// iteration count advances by one. On error nothing is committed; a
// preview whose spread leg failed still holds loc and may be retried.
func (m *Miner) Commit(loc *pattern.Location, sp *pattern.Spread, preview *Miner) error {
	if sp == nil {
		return m.CommitLocation(loc)
	}
	v := m.Snapshot()
	if preview == nil || preview.Model.ForkOf() != v {
		preview = m.ForkAt(v)
		preview.Model.Deadline = m.Model.Deadline
		if err := preview.Model.CommitLocation(loc.Extension, loc.Mean); err != nil {
			return err
		}
	}
	preview.Model.Deadline = m.Model.Deadline
	if err := preview.CommitSpread(sp); err != nil {
		return err
	}
	if !m.Model.Adopt(preview.Model) {
		return fmt.Errorf("core: the model refused a fork of its published version %d", v.Version())
	}
	m.iteration.Add(1)
	return nil
}

// CommitSpread assimilates a spread pattern into the background model.
func (m *Miner) CommitSpread(sp *pattern.Spread) error {
	return m.Model.CommitSpread(sp.Extension, sp.W, sp.Center, sp.Variance)
}

// IterationResult bundles the patterns of one full mining iteration.
type IterationResult struct {
	Location *pattern.Location
	Spread   *pattern.Spread // nil when spread mining is skipped
	Log      *search.Results
}

// Step runs one full iteration: mine the best location pattern, commit
// it, and — when withSpread is set — mine and commit the best spread
// pattern for the same subgroup.
func (m *Miner) Step(withSpread bool) (*IterationResult, error) {
	loc, log, err := m.MineLocation()
	if err != nil {
		return nil, err
	}
	if err := m.CommitLocation(loc); err != nil {
		return nil, err
	}
	out := &IterationResult{Location: loc, Log: log}
	if withSpread {
		sp, err := m.MineSpread(loc)
		if err != nil {
			return nil, err
		}
		if err := m.CommitSpread(sp); err != nil {
			return nil, err
		}
		out.Spread = sp
	}
	return out, nil
}

// AttrExplanation describes, for one target attribute, how the
// subgroup's observed mean compares to the background expectation — the
// per-attribute ranking of Fig. 5 and Fig. 8a.
type AttrExplanation struct {
	Target   string
	Observed float64
	Expected float64
	// CI95Lo/Hi bound the background model's 95% interval for the
	// subgroup mean of this attribute.
	CI95Lo, CI95Hi float64
	// IC is the one-dimensional information content of the attribute's
	// observed mean, used as the ranking key.
	IC float64
}

// ExplainLocation ranks the target attributes of a location pattern by
// how surprising their subgroup mean is under the current background
// model (most surprising first).
func (m *Miner) ExplainLocation(loc *pattern.Location) ([]AttrExplanation, error) {
	return m.explainLocation(m.Model, loc)
}

// ExplainLocationAt is ExplainLocation against a pinned model version,
// safe for callers running concurrently with commits.
func (m *Miner) ExplainLocationAt(v *background.ModelVersion, loc *pattern.Location) ([]AttrExplanation, error) {
	return m.explainLocation(v, loc)
}

func (m *Miner) explainLocation(r background.Reader, loc *pattern.Location) ([]AttrExplanation, error) {
	muI, covI, err := r.SubgroupMeanMarginal(loc.Extension)
	if err != nil {
		return nil, err
	}
	out := make([]AttrExplanation, m.DS.Dy())
	for j := 0; j < m.DS.Dy(); j++ {
		sd := math.Sqrt(covI.At(j, j))
		obs := loc.Mean[j]
		var ic float64
		if sd > 0 {
			z := (obs - muI[j]) / sd
			ic = 0.5*math.Log(2*math.Pi) + math.Log(sd) + z*z/2
		}
		out[j] = AttrExplanation{
			Target:   m.DS.TargetNames[j],
			Observed: obs,
			Expected: muI[j],
			CI95Lo:   muI[j] - 1.959963984540054*sd,
			CI95Hi:   muI[j] + 1.959963984540054*sd,
			IC:       ic,
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IC > out[j].IC })
	return out, nil
}
