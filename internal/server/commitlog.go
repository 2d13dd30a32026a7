package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/dataset"
	"repro/internal/pattern"
)

// A session's background model is a deterministic function of its
// create request and the ordered patterns it committed (the paper's
// I-projection onto the committed constraints). So a snapshot stores
// those commits, not the model, and a restore replays them through the
// same core commit calls the live session made (DESIGN §6, §11).

// maxLogCommits caps a snapshot's commit log. A restore refuses a
// longer log before any refit, so a hostile file cannot buy unbounded
// replay work; a session that commits more than this is no longer
// persisted. Every refit re-enforces every earlier constraint, so a
// session is interactive long before it reaches the cap.
const maxLogCommits = 256

// logEntry is one committed pattern, exactly as the session committed
// it: the intention as structured conditions with exact thresholds
// (the history's intention string rounds them to six digits), and the
// exact subgroup mean. A spread also carries its direction w and its
// variance along w; its mean is the center it was measured around.
type logEntry struct {
	Kind       string            `json:"kind"` // "location" or "spread"
	Conditions pattern.Intention `json:"conditions"`
	Mean       []float64         `json:"mean"`
	W          []float64         `json:"w,omitempty"`
	Variance   float64           `json:"variance,omitempty"`
}

// commitLog is a snapshot's payload: the commits in order, and the
// digest (background.ModelVersion.Digest) of the model they rebuild.
type commitLog struct {
	Commits []logEntry `json:"commits"`
	Digest  uint64     `json:"digest"`
}

func locationEntry(loc *pattern.Location) logEntry {
	return logEntry{Kind: "location", Conditions: loc.Intention, Mean: loc.Mean}
}

func spreadEntry(sp *pattern.Spread) logEntry {
	return logEntry{Kind: "spread", Conditions: sp.Intention, Mean: sp.Center, W: sp.W, Variance: sp.Variance}
}

// encodeLogLocked encodes the session's commit log and the digest of
// its published model. Caller holds sess.mu, so the log and the
// published version belong to the same commit.
func (sess *session) encodeLogLocked() (json.RawMessage, error) {
	if len(sess.log) > maxLogCommits {
		return nil, fmt.Errorf("server: session %s has %d commits, over the snapshot cap of %d",
			sess.id, len(sess.log), maxLogCommits)
	}
	return json.Marshal(commitLog{Commits: sess.log, Digest: sess.miner.Snapshot().Digest()})
}

// restoreSession rebuilds a session from a verified snapshot: a fresh
// session from the create request, then every logged commit replayed in
// order. The whole log is checked before the first refit. A log that is
// malformed wraps ErrCorrupt. A create request this binary cannot
// build, or a log that does not fit the dataset, fails to replay, or
// rebuilds a model whose digest differs from the sealed one wraps
// ErrIncompatible: this binary would restore a different belief state,
// so it restores none.
func restoreSession(snap *Snapshot) (*session, error) {
	log, err := decodeLog(snap)
	if err != nil {
		return nil, err
	}
	sess, err := newSession(&snap.Create)
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot %s: rebuilding dataset/miner: %v", ErrIncompatible, snap.ID, err)
	}
	ds := sess.miner.DS
	exts := make([]*bitset.Set, len(log.Commits))
	for i, e := range log.Commits {
		if exts[i], err = e.extension(ds); err != nil {
			return nil, fmt.Errorf("%w: snapshot %s commit %d: %v", ErrIncompatible, snap.ID, i+1, err)
		}
	}
	for i, e := range log.Commits {
		if e.Kind == "location" {
			err = sess.miner.CommitLocation(&pattern.Location{
				Intention: e.Conditions, Extension: exts[i], Mean: e.Mean,
			})
		} else {
			err = sess.miner.CommitSpread(&pattern.Spread{
				Intention: e.Conditions, Extension: exts[i], Center: e.Mean, W: e.W, Variance: e.Variance,
			})
		}
		if err != nil {
			return nil, fmt.Errorf("%w: snapshot %s: replaying commit %d: %v", ErrIncompatible, snap.ID, i+1, err)
		}
	}
	if got := sess.miner.Snapshot().Digest(); got != log.Digest {
		return nil, fmt.Errorf("%w: snapshot %s: replayed model digest %016x, sealed %016x",
			ErrIncompatible, snap.ID, got, log.Digest)
	}
	sess.log = log.Commits
	sess.history = append([]PatternJSON(nil), snap.History...)
	sess.iterations.Store(int64(sess.miner.Iteration()))
	return sess, nil
}

// decodeLog decodes and shape-checks a snapshot's commit log, wrapping
// ErrCorrupt on any failure: a payload that is not a commit log, more
// than maxLogCommits entries, an entry count that disagrees with the
// history or a location count that disagrees with Iterations, an
// unknown kind or operator, an intention with no conditions or more
// than a search can mine, or a non-finite number.
func decodeLog(snap *Snapshot) (*commitLog, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: snapshot %s: commit log: %s", ErrCorrupt, snap.ID, fmt.Sprintf(format, args...))
	}
	var log commitLog
	dec := json.NewDecoder(bytes.NewReader(snap.Model))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&log); err != nil {
		return nil, corrupt("%v", err)
	}
	if len(log.Commits) > maxLogCommits {
		return nil, corrupt("%d commits, over the cap of %d", len(log.Commits), maxLogCommits)
	}
	if len(log.Commits) != len(snap.History) {
		return nil, corrupt("%d commits for %d history entries", len(log.Commits), len(snap.History))
	}
	locations := 0
	for i, e := range log.Commits {
		switch e.Kind {
		case "location":
			locations++
		case "spread":
			if !finite(e.W...) || !finite(e.Variance) {
				return nil, corrupt("commit %d: non-finite spread", i+1)
			}
		default:
			return nil, corrupt("commit %d: unknown kind %q", i+1, e.Kind)
		}
		if len(e.Conditions) == 0 || len(e.Conditions) > maxSearchDepth {
			return nil, corrupt("commit %d: %d conditions", i+1, len(e.Conditions))
		}
		for _, c := range e.Conditions {
			if c.Op < pattern.LE || c.Op > pattern.NE || !finite(c.Threshold) {
				return nil, corrupt("commit %d: bad condition %+v", i+1, c)
			}
		}
		if !finite(e.Mean...) {
			return nil, corrupt("commit %d: non-finite mean", i+1)
		}
	}
	if locations != snap.Iterations {
		return nil, corrupt("%d location commits for %d iterations", locations, snap.Iterations)
	}
	return &log, nil
}

// extension checks that the entry fits ds — attributes, levels and
// vector lengths in range — and returns its non-empty extension.
func (e *logEntry) extension(ds *dataset.Dataset) (*bitset.Set, error) {
	if len(e.Mean) != ds.Dy() || (e.Kind == "spread" && len(e.W) != ds.Dy()) {
		return nil, fmt.Errorf("vectors do not have the dataset's %d targets", ds.Dy())
	}
	for _, c := range e.Conditions {
		if c.Attr < 0 || c.Attr >= len(ds.Descriptors) {
			return nil, fmt.Errorf("attribute %d out of range", c.Attr)
		}
		if (c.Op == pattern.EQ || c.Op == pattern.NE) &&
			(c.Level < 0 || c.Level >= len(ds.Descriptors[c.Attr].Levels)) {
			return nil, fmt.Errorf("level %d of attribute %d out of range", c.Level, c.Attr)
		}
	}
	ext := e.Conditions.Extension(ds)
	if ext.Count() == 0 {
		return nil, fmt.Errorf("empty extension")
	}
	return ext, nil
}

func finite(fs ...float64) bool {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}
