package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Snapshot is the persistent form of a session: everything needed to
// rebuild its miner and belief state in another process (or after a
// restart). The dataset itself is not stored — builtin datasets are
// deterministic in (name, seed) and CSV data rides along inside the
// CreateRequest — and neither is the background model: the model is a
// deterministic function of the create request and the ordered
// commits, so a snapshot stores the session's commit log and a restore
// replays it (DESIGN §6). Pending (mined but uncommitted) patterns are
// deliberately ephemeral.
type Snapshot struct {
	// Format is the snapshot wire-format version (SnapshotFormat when
	// written by this code). A missing or zero format is an unsealed
	// file, which Verify rejects as corrupt.
	Format  int           `json:"format,omitempty"`
	ID      string        `json:"id"`
	Create  CreateRequest `json:"create"`
	History []PatternJSON `json:"history,omitempty"`
	// Iterations is the number of committed location patterns.
	Iterations int `json:"iterations"`
	// Model is the payload: the session's commit log and the digest of
	// the model it rebuilds, as JSON (see commitLog).
	Model json.RawMessage `json:"log"`
	// CRC is a CRC-32C (Castagnoli) over every field a restore reads —
	// all of the above — set by Seal and checked by Verify: a torn or
	// bit-flipped file surfaces as a typed ErrCorrupt instead of an
	// opaque failure deep in the restore path.
	CRC     uint32    `json:"crc32c"`
	SavedAt time.Time `json:"savedAt"`
}

// SnapshotFormat is the current snapshot wire-format version. Format 2
// stores the commit log; a format-1 file, which stored the model, is
// rejected as corrupt like an unsealed one.
const SnapshotFormat = 2

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sealed is the part of a Snapshot its CRC covers besides the payload:
// every field but the payload, the CRC itself and SavedAt.
type sealed struct {
	Format     int           `json:"format"`
	ID         string        `json:"id"`
	Create     CreateRequest `json:"create"`
	History    []PatternJSON `json:"history,omitempty"`
	Iterations int           `json:"iterations"`
}

// checksum is the CRC-32C of the covered fields' JSON encoding followed
// by the payload bytes. A JSON round trip through a store reproduces
// both exactly: strings and float64s round-trip, and the payload is
// compact JSON (json.Marshal's, as the writer produces it), which a
// store keeps byte for byte. It fails only on fields JSON cannot encode.
func (s *Snapshot) checksum() (uint32, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	err := json.NewEncoder(buf).Encode(&sealed{
		Format: s.Format, ID: s.ID, Create: s.Create, History: s.History, Iterations: s.Iterations,
	})
	return crc32.Update(crc32.Checksum(buf.Bytes(), castagnoli), castagnoli, s.Model), err
}

// Seal stamps the snapshot with the current format version and the
// CRC-32C of the fields a restore reads, leaving the fields themselves
// untouched. Idempotent. The writer seals once
// (session.snapshotLocked); DirStore.Put only verifies, so an unsealed
// snapshot never reaches disk. A snapshot JSON cannot encode seals to
// a CRC that Verify rejects. The payload must be compact JSON to
// verify after a store round trip, since a store's encoder compacts it.
func (s *Snapshot) Seal() {
	s.Format = SnapshotFormat
	s.CRC, _ = s.checksum()
}

// Verify checks the integrity framing: an unsealed snapshot (Format 0),
// a format-1 one (it holds a model, not a commit log, so no restore can
// read it) or one whose fields do not match its CRC wraps ErrCorrupt. A
// format newer than SnapshotFormat is refused with a plain error — the
// file may be sound, this code just cannot read it — so it is never
// quarantined.
func (s *Snapshot) Verify() error {
	switch {
	case s.Format <= 0:
		return fmt.Errorf("%w: snapshot %s unsealed (format %d)", ErrCorrupt, s.ID, s.Format)
	case s.Format > SnapshotFormat:
		return fmt.Errorf("server: snapshot %s: format %d not supported (newer writer?)", s.ID, s.Format)
	case s.Format < SnapshotFormat:
		return fmt.Errorf("%w: snapshot %s has format %d, which stored the model, not the commit log",
			ErrCorrupt, s.ID, s.Format)
	}
	got, err := s.checksum()
	if err != nil {
		return fmt.Errorf("%w: snapshot %s: %v", ErrCorrupt, s.ID, err)
	}
	if got != s.CRC {
		return fmt.Errorf("%w: snapshot %s CRC mismatch (stored %08x, computed %08x)",
			ErrCorrupt, s.ID, s.CRC, got)
	}
	return nil
}

// ErrNotFound is returned by Store.Get for unknown session ids.
var ErrNotFound = errors.New("server: session snapshot not found")

// ErrCorrupt tags snapshots that failed integrity validation — a
// checksum mismatch, truncated JSON, an unsealed or format-1 file, or a
// commit log that is malformed. The serving layer maps it to the
// "snapshot_corrupt" error envelope, and DirStore quarantines the
// offending file.
var ErrCorrupt = errors.New("server: snapshot corrupt")

// ErrIncompatible tags sound snapshots this binary cannot restore
// faithfully: a create request it cannot build, a commit log that does
// not fit the dataset, a replay that fails, or a replayed model whose
// digest differs from the one sealed. Only a restore returns it, never
// a Store, so the file is left in place. The serving layer maps it to
// the "snapshot_incompatible" error envelope.
var ErrIncompatible = errors.New("server: snapshot incompatible")

// Store persists session snapshots. Implementations must be safe for
// concurrent use.
type Store interface {
	Put(snap *Snapshot) error
	Get(id string) (*Snapshot, error)
	// Delete reports whether a snapshot existed; deleting an absent id
	// is not an error.
	Delete(id string) (existed bool, err error)
	// List returns the ids of all stored snapshots, sorted.
	List() ([]string, error)
}

// MemStore keeps snapshots in process memory — the single-process
// default. Survives session LRU/TTL eviction but not a restart.
type MemStore struct {
	mu sync.Mutex
	m  map[string]*Snapshot
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: map[string]*Snapshot{}} }

// Put stores a deep-enough copy of snap (the payload bytes are
// aliased; callers do not mutate them after Put).
func (s *MemStore) Put(snap *Snapshot) error {
	cp := *snap
	cp.History = append([]PatternJSON(nil), snap.History...)
	s.mu.Lock()
	s.m[snap.ID] = &cp
	s.mu.Unlock()
	return nil
}

// Get retrieves a snapshot by id.
func (s *MemStore) Get(id string) (*Snapshot, error) {
	s.mu.Lock()
	snap := s.m[id]
	s.mu.Unlock()
	if snap == nil {
		return nil, ErrNotFound
	}
	cp := *snap
	// Deep-copy History to match Put and DirStore semantics: a caller
	// appending to the returned snapshot's history must not write
	// through into the stored copy's backing array.
	cp.History = append([]PatternJSON(nil), snap.History...)
	return &cp, nil
}

// Delete removes a snapshot, reporting whether it existed.
func (s *MemStore) Delete(id string) (bool, error) {
	s.mu.Lock()
	_, existed := s.m[id]
	delete(s.m, id)
	s.mu.Unlock()
	return existed, nil
}

// List returns all stored ids, sorted.
func (s *MemStore) List() ([]string, error) {
	s.mu.Lock()
	out := make([]string, 0, len(s.m))
	for id := range s.m {
		out = append(out, id)
	}
	s.mu.Unlock()
	sort.Strings(out)
	return out, nil
}

// DirStore persists snapshots as one JSON file per session in a
// directory, so sessions survive process restarts and can be shared by
// multiple server processes on a common filesystem. Writes are durable
// and atomic: the temp file is fsynced before the rename and the
// directory after it, so after a crash every *.json file is either the
// old or the new complete snapshot, never a torn one. Leftover *.tmp
// files from a crashed Put and files that fail integrity validation
// are cleaned up by a recovery sweep at open time (the latter are
// quarantined under a .corrupt suffix rather than deleted, so an
// operator can inspect them).
//
// NewDirStore opens (creates the directory, runs the sweep) eagerly
// and fails if it cannot. NewReplicatedDirStore's children open
// lazily, so an unavailable replica directory (dead disk, unmounted
// volume) is a broken replica to route around: every operation
// retries the open, and remounting the volume heals it without a
// restart.
type DirStore struct {
	dir string
	// noSync skips the fsync calls — a test/bench hook quantifying the
	// durability cost (BenchmarkDirStorePut), never set in production.
	noSync bool

	// mu guards the one-time open and the recovery-sweep counters it
	// fills (for startup logging).
	mu          sync.Mutex
	opened      bool
	sweptTmp    int
	quarantined int
}

// NewDirStore creates the directory if needed, runs the crash-recovery
// sweep (removing orphaned *.tmp files, quarantining snapshots that
// fail validation), and returns the store.
func NewDirStore(dir string) (*DirStore, error) {
	s := &DirStore{dir: dir}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

// open creates the directory and runs the recovery sweep, once; until
// that succeeds, every call retries it.
func (s *DirStore) open() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opened {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("server: session store dir: %w", err)
	}
	if err := s.recover(); err != nil {
		return err
	}
	s.opened = true
	return nil
}

// RecoveryStats reports what the open-time sweep found: orphaned *.tmp
// files removed and corrupt snapshots quarantined.
func (s *DirStore) RecoveryStats() (tmpRemoved, quarantined int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweptTmp, s.quarantined
}

// recover is the startup sweep. A *.tmp file is a Put that never
// reached its rename — without the sweep they accumulate forever. A
// *.json file that fails to parse or verify is quarantined so a later
// Get cannot trip over it (rename keeps the bytes for inspection).
func (s *DirStore) recover() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("server: recovery sweep: %w", err)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			if os.Remove(filepath.Join(s.dir, name)) == nil {
				s.sweptTmp++
			}
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		if _, err := s.load(filepath.Join(s.dir, name)); errors.Is(err, ErrCorrupt) {
			if s.quarantine(filepath.Join(s.dir, name)) == nil {
				s.quarantined++
			}
		}
	}
	return nil
}

// quarantine moves a corrupt snapshot file aside under a .corrupt
// suffix: it stops being served (List/Get skip it) but stays on disk
// for inspection. An earlier quarantine of the same id is overwritten.
func (s *DirStore) quarantine(path string) error {
	return os.Rename(path, path+".corrupt")
}

// load reads and validates one snapshot file. Corruption — truncated
// or malformed JSON, or a checksum mismatch — wraps ErrCorrupt. The
// file is read into a pooled buffer sized by Stat: json.Unmarshal
// copies everything the snapshot keeps (strings, the RawMessage
// payload), so the buffer goes back to the pool with no snapshot
// aliasing it.
func (s *DirStore) load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	if fi, err := f.Stat(); err == nil {
		buf.Grow(int(fi.Size()) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(path), err)
	}
	if err := snap.Verify(); err != nil {
		return nil, err
	}
	return &snap, nil
}

// bufPool recycles the snapshot-sized buffers DirStore encodes into
// (Put) and reads files into (load), so neither pass allocates a
// buffer per call. Buffers that grew past maxPooledBuf are dropped
// rather than pinned.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

func putBuf(buf *bytes.Buffer) {
	if buf.Cap() > maxPooledBuf {
		return
	}
	buf.Reset()
	bufPool.Put(buf)
}

// syncDir fsyncs the store directory, making a just-renamed snapshot's
// directory entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// validID guards against path traversal: session ids are only ever the
// server-generated s%04d form, but Get sees client-supplied strings.
func validID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

func (s *DirStore) path(id string) string {
	return filepath.Join(s.dir, id+".json")
}

// Put writes the snapshot atomically and durably: encode it into a
// pooled buffer (exactly json.Marshal's bytes), write + fsync a fresh
// temp file, rename it over the target, fsync the directory. A crash
// at any point leaves either the previous complete snapshot or the new
// one — the recovery sweep disposes of any temp file left behind.
// Every Put has its own temp file, so concurrent Puts of one id, from
// this process or another sharing the directory, cannot tear each
// other: the last rename wins. The writer seals: a snapshot that fails
// Verify (unsealed, or fields that no longer match their CRC) is
// rejected without touching the directory, so Put never writes a file
// its own Get would quarantine.
func (s *DirStore) Put(snap *Snapshot) error {
	if !validID(snap.ID) {
		return fmt.Errorf("server: invalid session id %q", snap.ID)
	}
	if err := snap.Verify(); err != nil {
		return err
	}
	if err := s.open(); err != nil {
		return err
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(snap); err != nil {
		return err
	}
	// Drop the encoder's trailing newline: json.Marshal writes none.
	raw := buf.Bytes()
	tmp, err := s.writeTemp(snap.ID, raw[:len(raw)-1])
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, s.path(snap.ID)); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if s.noSync {
		return nil
	}
	return syncDir(s.dir)
}

// writeTemp writes data to a new <id>.json.<rand>.tmp file, created
// with O_EXCL so no other Put shares it, and fsyncs it before close:
// the rename in Put must only ever expose fully persisted bytes. On
// failure the temp file is removed.
func (s *DirStore) writeTemp(id string, data []byte) (string, error) {
	path := s.path(id) + "." + strconv.FormatUint(rand.Uint64(), 36) + ".tmp"
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return "", err
	}
	_, err = f.Write(data)
	if err == nil && !s.noSync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(path)
		return "", err
	}
	return path, nil
}

// Get reads and validates a snapshot by id. A corrupt file (torn
// write from a pre-durability version, bit rot, truncation) is
// quarantined on the spot and reported as ErrCorrupt, so it fails the
// same way exactly once and can never crash a restore loop twice.
func (s *DirStore) Get(id string) (*Snapshot, error) {
	if !validID(id) {
		return nil, ErrNotFound
	}
	if err := s.open(); err != nil {
		return nil, err
	}
	snap, err := s.load(s.path(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNotFound
	}
	if errors.Is(err, ErrCorrupt) {
		_ = s.quarantine(s.path(id))
		return nil, err
	}
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// Delete removes a snapshot file, reporting whether it existed.
func (s *DirStore) Delete(id string) (bool, error) {
	if !validID(id) {
		return false, nil
	}
	if err := s.open(); err != nil {
		return false, err
	}
	err := os.Remove(s.path(id))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	return err == nil, err
}

// List returns the ids of all snapshot files, sorted.
func (s *DirStore) List() ([]string, error) {
	if err := s.open(); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		out = append(out, strings.TrimSuffix(name, ".json"))
	}
	sort.Strings(out)
	return out, nil
}
