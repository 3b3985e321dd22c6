// Package index is the on-disk form of the VMIS-kNN index and the entry
// point of the offline job that writes it.
//
// The paper rebuilds the session similarity index once per day with a
// Spark job over the last 180 days of clicks and ships it to the serving
// machines (§4.2). Here the build is core.BuildIndex's two passes over the
// renumbered sessions: count each item's sessions, then scatter every
// session id straight into its item's slot, most recent first, truncated
// to the sample capacity. The result is serialised as the CSR arena
// itself, section by section with a checksum each, so a serving pod maps
// the file instead of decoding it (see serde_v2.go).
package index

import (
	"serenade/internal/core"
	"serenade/internal/dataflow"
	"serenade/internal/sessions"
)

// Build constructs the VMIS-kNN index from a renumbered dataset; it is
// core.BuildIndex. The Engine is ignored and kept only so existing
// callers compile.
func Build(_ *dataflow.Engine, ds *sessions.Dataset, capacity int) (*core.Index, error) {
	return core.BuildIndex(ds, capacity)
}
