package sisd

import (
	"io"

	"repro/internal/background"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mat"
	"repro/internal/pattern"
	"repro/internal/search"
	"repro/internal/si"
	"repro/internal/spreadopt"
)

// Core data model.
type (
	// Dataset bundles typed description attributes with the real-valued
	// target matrix.
	Dataset = dataset.Dataset
	// Column is one description attribute.
	Column = dataset.Column
	// Kind classifies a description attribute (Numeric, Ordinal,
	// Categorical or Binary).
	Kind = dataset.Kind
)

// Description attribute kinds.
const (
	Numeric     = dataset.Numeric
	Ordinal     = dataset.Ordinal
	Categorical = dataset.Categorical
	Binary      = dataset.Binary
)

// Pattern syntax.
type (
	// Condition is a single condition on one description attribute.
	Condition = pattern.Condition
	// Intention is a conjunction of conditions describing a subgroup.
	Intention = pattern.Intention
	// LocationPattern is an intention plus the subgroup's target mean.
	LocationPattern = pattern.Location
	// SpreadPattern is an intention plus a unit direction in target
	// space and the subgroup's variance along it.
	SpreadPattern = pattern.Spread
	// Op is a condition operator (LE, GE, EQ).
	Op = pattern.Op
)

// Condition operators.
const (
	LE = pattern.LE
	GE = pattern.GE
	EQ = pattern.EQ
	NE = pattern.NE
)

// Mining engine.
type (
	// Miner is the iterative subgroup discovery engine. A Miner is safe
	// for one writer (Commit*) plus any number of concurrent readers:
	// Snapshot returns the immutable published model version, and MineAt
	// / PreviewSpread / ExplainLocationAt run against such a version
	// without locking, unperturbed by commits that land meanwhile.
	Miner = core.Miner
	// ModelVersion is one immutable published version of a miner's
	// background model (copy-on-write: each commit builds and publishes
	// the next one). Obtain with Miner.Snapshot; mine against it with
	// Miner.MineAt. A version fully determines a mine's result — the
	// same version yields byte-identical patterns regardless of
	// concurrent commits.
	ModelVersion = background.ModelVersion
	// MineOptions tune one MineAt / PreviewSpread call (currently the
	// search deadline) without mutating the miner's shared Config.
	MineOptions = core.MineOptions
	// Config bundles all mining parameters.
	Config = core.Config
	// IterationResult is the outcome of one full mining iteration.
	IterationResult = core.IterationResult
	// AttrExplanation compares a subgroup's observed target mean to the
	// background expectation, one target attribute at a time.
	AttrExplanation = core.AttrExplanation
	// SearchParams configure the beam search (width, depth, top-k, time
	// budget).
	SearchParams = search.Params
	// SearchResults is the log of a beam search (the top-k patterns).
	SearchResults = search.Results
	// SpreadParams configure the spread-direction optimizer.
	SpreadParams = spreadopt.Params
	// SIParams hold the description-length coefficients γ and η.
	SIParams = si.Params
	// Vec is a dense vector of float64 (target-space points and
	// directions).
	Vec = mat.Vec
)

// NewMiner builds a miner over the dataset. Zero-valued Config fields
// get the paper's defaults: empirical prior, γ=0.1, η=1, beam width 40,
// depth 4, top-150 log, 4 percentile split points.
func NewMiner(ds *Dataset, cfg Config) (*Miner, error) {
	return core.NewMiner(ds, cfg)
}

// ErrNoPattern is returned by mining calls when the search yields no
// scoreable pattern. When it accompanies a search log whose TimedOut
// flag is set, the time budget expired before anything was scored —
// a retry with a larger budget, not a dead end.
var ErrNoPattern = core.ErrNoPattern

// SaveModel serializes a miner's belief state (the background model's
// group parameters and committed constraints) as JSON, stamped with
// the model version it serialized — so saved files can be matched
// against mine results annotated with a modelVersion. With Restore it
// is the library's model export and import; the HTTP server persists
// sessions as their commit log instead. The dataset is not part of the
// file (rebuild it deterministically from its source), only the
// evolving belief state is. SaveModel reads the live model
// and belongs to the writer; to export concurrently with commits, use
// m.Snapshot().SaveJSON instead.
func SaveModel(m *Miner, w io.Writer) error { return m.Model.SaveJSON(w) }

// RestoreOptions configure Restore. The zero value of Config gets the
// paper's defaults, like NewMiner.
type RestoreOptions struct {
	// Config for the rebuilt miner. Must match the configuration the
	// original miner ran with for restored mining to reproduce it.
	Config Config
	// SavedModel is the JSON belief state written by SaveModel.
	SavedModel io.Reader
	// Iterations is the committed iteration count the snapshot
	// represents (what Miner.Iteration reported when it was saved).
	Iterations int
}

// Restore rebuilds a miner over ds from a belief state saved with
// SaveModel. The model parameters are restored exactly (bit-identical
// floats, no constraint replay), so the restored miner mines exactly
// what the original would have. The restored model's version stamp
// is the one SaveModel recorded (older files without a stamp derive it
// from the constraint count).
func Restore(ds *Dataset, opts RestoreOptions) (*Miner, error) {
	m, err := core.NewMiner(ds, opts.Config)
	if err != nil {
		return nil, err
	}
	model, err := background.LoadJSONExact(opts.SavedModel)
	if err != nil {
		return nil, err
	}
	if err := m.Restore(model, opts.Iterations); err != nil {
		return nil, err
	}
	return m, nil
}

// OptimalResult is the outcome of the exact single-target search.
type OptimalResult = search.OptimalResult

// FoundPattern is one scored subgroup in a search log.
type FoundPattern = search.Found

// DiverseTopK selects up to k patterns from a search log such that no
// two extensions overlap by more than maxJaccard — a cheap portfolio of
// distinct subgroups from a single search (iterative Commit-based
// mining remains the principled non-redundancy mechanism).
func DiverseTopK(res *SearchResults, k int, maxJaccard float64) []FoundPattern {
	return search.DiverseTopK(res, k, maxJaccard)
}

// MineOptimalLocation1D finds the location pattern with globally
// maximal SI for a dataset with a single real-valued target, under a
// fresh background model with prior N(mu, sigma2) — the exact search
// the paper leaves as future work (§V). It walks the whole condition
// language, pruned by the SI scorer's admissible bound, and returns the
// same optimum, bit for bit, as an unpruned walk. Exponential in the
// worst case but heavily pruned in practice; beam search remains the
// default for large data. It returns an error for more than one
// target, a non-positive sigma2 or a negative γ or η.
func MineOptimalLocation1D(ds *Dataset, mu, sigma2 float64, p SIParams,
	maxDepth, numSplits, minSupport int) (*OptimalResult, error) {
	return search.OptimalLocation1D(ds, mu, sigma2, p, maxDepth, numSplits, minSupport)
}

// DefaultSIParams returns the paper's description-length coefficients
// (γ=0.1, η=1).
func DefaultSIParams() SIParams { return si.Default() }

// ReadCSV parses a dataset from CSV with "name:role:kind" headers (see
// Dataset.WriteCSV for the format).
func ReadCSV(r io.Reader) (*Dataset, error) { return dataset.ReadCSV(r) }

// ReadARFF parses a Weka/Cortana-style ARFF file; the attributes named
// in targets become the real-valued target columns, everything else a
// descriptor. The paper's original tooling (Cortana) consumes ARFF, so
// its datasets can be used directly.
func ReadARFF(r io.Reader, targets []string) (*Dataset, error) {
	return dataset.ReadARFF(r, targets)
}

// The dataset replicas used in the paper's evaluation (§III). All are
// deterministic in the seed; see DESIGN.md §3 for what each replica
// preserves of the original data.

// GenerateSynthetic builds the §III-A synthetic dataset: 620 points,
// two targets, three embedded 40-point clusters labeled by binary
// descriptors a3–a5 (a6, a7 are noise).
func GenerateSynthetic(seed int64) *Dataset { return gen.Synthetic620(seed).DS }

// GenerateCrimeLike builds the Communities & Crime replica
// (1994×122×1).
func GenerateCrimeLike(seed int64) *Dataset { return gen.CrimeLike(seed).DS }

// GenerateMammalsLike builds the European mammals atlas replica
// (2220×67×124).
func GenerateMammalsLike(seed int64) *Dataset { return gen.MammalsLike(seed).DS }

// GenerateSocioEconLike builds the German socio-economics replica
// (412×13×5).
func GenerateSocioEconLike(seed int64) *Dataset { return gen.SocioEconLike(seed).DS }

// GenerateWaterQualityLike builds the river water quality replica
// (1060×14×16).
func GenerateWaterQualityLike(seed int64) *Dataset { return gen.WaterQualityLike(seed).DS }
