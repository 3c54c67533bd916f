package mvcc

import "repro/internal/obs"

// Columnar projection builds, by how the projection came to be: "full"
// is a from-scratch engine.BuildColumnar on a view's first columnar
// query (cold start, after a Compact, or after a value broke a
// column's kind), "derived" is Publish extending or copying the
// previous view's projection. Counted once per build, never on the
// query path.
var (
	mxColBuilds = obs.Default.CounterVec("pi_columnar_builds_total",
		"Columnar projections built, by kind: full (from scratch) or derived (from the previous epoch's).", "kind")
	mxColFull    = mxColBuilds.With("full")
	mxColDerived = mxColBuilds.With("derived")
)
