package incremental

import (
	"serenade/internal/core"
	"serenade/internal/sessions"
)

// Recommender executes VMIS-kNN over the incrementally maintained index:
// core's Algorithm 2 walk over base plus delta, each query under the index's
// read lock, so appends and compactions interleave safely with queries. A
// Recommender reuses buffers and is not safe for concurrent use itself;
// create one per goroutine with Clone.
type Recommender struct {
	x   *Index
	ref *core.ReferenceRecommender
}

// NewRecommender validates parameters against the index capacity.
func NewRecommender(x *Index, p core.Params) (*Recommender, error) {
	ref, err := core.NewReferenceRecommender((*view)(x), p)
	if err != nil {
		return nil, err
	}
	return &Recommender{x: x, ref: ref}, nil
}

// Clone returns an independent Recommender over the same index. Building a
// walk reads only the index's capacity, which never changes, so it needs no
// lock.
func (r *Recommender) Clone() *Recommender {
	return &Recommender{x: r.x, ref: r.ref.Clone()}
}

// NeighborSessions computes the k most similar historical sessions,
// spanning both the base index and the delta.
func (r *Recommender) NeighborSessions(evolving []sessions.ItemID) []core.Neighbor {
	r.x.mu.RLock()
	defer r.x.mu.RUnlock()
	return r.ref.NeighborSessions(evolving)
}

// Recommend computes the top-n next-item recommendations.
func (r *Recommender) Recommend(evolving []sessions.ItemID, n int) []core.ScoredItem {
	r.x.mu.RLock()
	defer r.x.mu.RUnlock()
	return r.ref.Recommend(evolving, n)
}
