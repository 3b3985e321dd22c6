package serving

import (
	"errors"
	"io"
	"sync"

	"serenade/internal/core"
	"serenade/internal/fastjson"
	"serenade/internal/sessions"
)

// reqScratch is the per-request scratch space that makes the HTTP edge
// allocation-free in steady state: one pooled struct carries every buffer a
// request needs — body read, JSON decode state, response items, session
// state codec, kvstore reads, cache key, response encode — through the
// handler, the recommendation pipeline and the response write.
//
// Lifecycle invariant: a scratch is acquired at the top of a handler and
// released (deferred) only after the response bytes have been handed to the
// ResponseWriter, so nothing downstream may retain a reference past the
// handler's return. Everything that must outlive the request — the session
// key, kvstore values, cache entries published to other requests — is
// copied out by its owner (kvstore.Put, resultCache.fill,
// quality.RecordExposure all copy).
type reqScratch struct {
	// dec is the reusable JSON scanner; its internal unescape buffer
	// amortises across requests.
	dec fastjson.Dec
	// body holds the raw request body.
	body []byte
	// enc holds the encoded response (and the replayed idempotent body).
	enc []byte
	// items backs the response item list end to end: kernel copy, business
	// rules (in place), popularity padding, Response.Items.
	items []core.ScoredItem
	// session backs the evolving session decoded from the store.
	session []sessions.ItemID
	// sessEnc holds the re-encoded session written back to the store.
	sessEnc []byte
	// kvBuf receives kvstore reads (session state).
	kvBuf []byte
	// key builds the result-cache key.
	key []byte
	// replayID builds the idempotency-table identity of a keyed request.
	replayID []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &reqScratch{
		body:    make([]byte, 0, 512),
		enc:     make([]byte, 0, 2048),
		items:   make([]core.ScoredItem, 0, 64),
		session: make([]sessions.ItemID, 0, 64),
		sessEnc: make([]byte, 0, 256),
		kvBuf:   make([]byte, 0, 256),
		key:     make([]byte, 0, 128),
	}
}}

func getScratch() *reqScratch   { return scratchPool.Get().(*reqScratch) }
func putScratch(sc *reqScratch) { scratchPool.Put(sc) }

// maxRequestBody bounds a request body: one that fills this many bytes is
// refused. Real recommend and track bodies are under 100 bytes; the bound
// keeps an oversized POST from growing a pooled scratch buffer that every
// later request would carry.
const maxRequestBody = 64 << 10

// errBodyTooLarge is readAllInto's answer to a body of maxRequestBody bytes
// or more.
var errBodyTooLarge = errors.New("body exceeds 64 KiB")

// readAllInto reads r to EOF into dst's backing array (growing it only when
// the body exceeds the retained capacity) and returns the filled slice. The
// capacity never grows past maxRequestBody: a body that fills it fails with
// errBodyTooLarge.
func readAllInto(dst []byte, r io.Reader) ([]byte, error) {
	dst = dst[:0]
	for {
		if len(dst) == cap(dst) {
			if len(dst) >= maxRequestBody {
				return dst, errBodyTooLarge
			}
			grown := make([]byte, len(dst), min(max(2*cap(dst), 512), maxRequestBody))
			copy(grown, dst)
			dst = grown
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
