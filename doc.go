// Package sisd is a standalone Go implementation of "Subjectively
// Interesting Subgroup Discovery on Real-valued Targets" (Lijffijt,
// Kang, Duivesteijn, Puolamäki, Oikarinen, De Bie — ICDE 2018,
// arXiv:1710.04521).
//
// The library finds subgroups of a dataset — described by conjunctions
// of conditions on arbitrarily-typed description attributes — whose
// real-valued target attributes are maximally informative to a specific
// user. Informativeness is measured by the Subjective Interestingness
// (SI) of the FORSIED framework: the information content of the pattern
// under a Maximum-Entropy background distribution representing the
// user's current beliefs, divided by the pattern's description length.
// Two pattern types are supported:
//
//   - location patterns: the subgroup's target mean is surprising;
//   - spread patterns: the subgroup's variance along a direction w in
//     target space is surprising (only shown after the location, which
//     is required to interpret it).
//
// After each pattern is shown, the background distribution is updated
// by information projection (Theorems 1 and 2 of the paper), so the
// next iteration automatically surfaces non-redundant patterns.
//
// The background model is versioned copy-on-write: every commit builds
// and atomically publishes the next immutable ModelVersion. Concurrent
// use follows from that — Miner.Snapshot pins a version, and MineAt /
// PreviewSpread / ExplainLocationAt run lock-free against it while
// commits proceed, with results byte-identical to a serial run against
// the same version. Miner.Commit commits a location and its spread as
// one published version. SaveModel and Restore (RestoreOptions) are the
// library's model export and import; the HTTP server persists a
// session as its commit log and restores it by replaying the commits.
//
// # Quick start
//
//	ds := ...                      // *sisd.Dataset (see ReadCSV / generators)
//	m, err := sisd.NewMiner(ds, sisd.Config{})
//	loc, _, err := m.MineLocation()      // best location pattern
//	err = m.CommitLocation(loc)          // tell the model the user saw it
//	sp, err := m.MineSpread(loc)         // most surprising direction
//	err = m.CommitSpread(sp)
//
// Serving rides on top: cmd/sisd-server exposes sessions over HTTP
// (one interactive miner per session, durable snapshots), and
// cmd/sisd-router scales that horizontally — a stateless
// consistent-hash router places sessions on N server shards over a
// shared snapshot store and migrates them between shards by snapshot
// handoff (DESIGN.md §12). Snapshots themselves survive disk loss via
// the quorum-replicated store (repeatable -store-dir; DESIGN.md §13):
// writes need W of N replica directories, reads take the freshest of a
// read quorum and repair the rest, and a background anti-entropy sweep
// converges replicas that were down.
//
// The package's Example_* functions (quickstart, iterative, crime,
// mammals, election, waterQuality) are checked end-to-end programs, one
// per case study; see DESIGN.md for the system inventory and the
// mapping from the paper's tables and figures to the benchmarks that
// regenerate them.
package sisd
