package serving

import (
	"fmt"
	"math"

	"serenade/internal/core"
	"serenade/internal/fastjson"
	"serenade/internal/sessions"
)

// This file holds the hand-rolled wire codecs for the two fixed HTTP edge
// schemas. Each Encode* is byte-identical to json.Marshal for every value
// the server can produce, and each Decode* accepts exactly the documents the
// handler's previous json.Decoder accepted with the same resulting struct —
// server-side decodes are strict (DisallowUnknownFields), client-side
// decodes are lenient (unknown fields skipped). The contract is enforced by
// codec_test.go and FuzzFastJSON. Exported so the client package drives the
// same code, keeping loadgen's measurements about the server, not loadgen.

// foldEq reports whether the decoded key matches the lower-case field name
// under encoding/json's ASCII-case-insensitive matching (Go 1.21+ folds
// ASCII letters only; non-ASCII bytes must match exactly).
func foldEq(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i := 0; i < len(key); i++ {
		a := key[i]
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if a != name[i] {
			return false
		}
	}
	return true
}

func errUnknownField(key []byte) error {
	return fmt.Errorf("json: unknown field %q", key)
}

// readItemID reads a uint32-bounded item id, mirroring encoding/json's
// overflow rejection for uint32 fields.
func readItemID(d *fastjson.Dec) (sessions.ItemID, error) {
	v, err := d.ReadUint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("json: number %d overflows item id", v)
	}
	return sessions.ItemID(v), nil
}

// endObjectField consumes the "," or "}" after an object member. done is
// true at the closing brace.
func endObjectField(d *fastjson.Dec) (done bool, err error) {
	switch c := d.Peek(); c {
	case ',':
		d.TryConsume(',')
		return false, nil
	case '}':
		d.TryConsume('}')
		return true, nil
	default:
		return false, fmt.Errorf("json: invalid character %q after object value", c)
	}
}

// EncodeRequest appends the json.Marshal form of req.
func EncodeRequest(dst []byte, req *Request) []byte {
	dst = append(dst, `{"session_id":`...)
	dst = fastjson.AppendString(dst, req.SessionKey)
	dst = append(dst, `,"item_id":`...)
	dst = fastjson.AppendItemID(dst, uint32(req.Item))
	dst = append(dst, `,"consent":`...)
	dst = fastjson.AppendBool(dst, req.Consent)
	return append(dst, '}')
}

// DecodeRequest parses data into req with json.Decoder semantics and
// DisallowUnknownFields, like handleRecommendPost's previous decoder:
// null is a no-op, keys match ASCII-case-insensitively, trailing data after
// the first value is ignored.
func DecodeRequest(d *fastjson.Dec, data []byte, req *Request) error {
	d.Init(data)
	if d.TryNull() {
		return nil
	}
	if err := d.Expect('{'); err != nil {
		return err
	}
	if d.TryConsume('}') {
		return nil
	}
	for {
		key, err := d.ReadString()
		if err != nil {
			return err
		}
		var known string
		switch {
		case foldEq(key, "session_id"):
			known = "session_id"
		case foldEq(key, "item_id"):
			known = "item_id"
		case foldEq(key, "consent"):
			known = "consent"
		default:
			return errUnknownField(key)
		}
		if err := d.Expect(':'); err != nil {
			return err
		}
		if !d.TryNull() {
			switch known {
			case "session_id":
				s, err := d.ReadString()
				if err != nil {
					return err
				}
				req.SessionKey = string(s)
			case "item_id":
				if req.Item, err = readItemID(d); err != nil {
					return err
				}
			case "consent":
				if req.Consent, err = d.ReadBool(); err != nil {
					return err
				}
			}
		}
		done, err := endObjectField(d)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// EncodeResponse appends the json.Marshal form of resp. core.ScoredItem has
// no json tags, so items marshal with Go field names; a nil slice encodes as
// null, like encoding/json.
func EncodeResponse(dst []byte, resp *Response) []byte {
	dst = append(dst, `{"items":`...)
	if resp.Items == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range resp.Items {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"Item":`...)
			dst = fastjson.AppendItemID(dst, uint32(resp.Items[i].Item))
			dst = append(dst, `,"Score":`...)
			dst = fastjson.AppendFloat(dst, resp.Items[i].Score)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"session_length":`...)
	dst = fastjson.AppendInt(dst, int64(resp.SessionLength))
	return append(dst, '}')
}

// DecodeResponse parses data into resp with lenient client semantics (the
// client's json.Decoder does not disallow unknown fields). Slice reuse
// mirrors encoding/json's d.array: existing elements are decoded into
// without zeroing, the backing array is reused across duplicate keys, and
// an empty JSON array yields an empty non-nil slice.
func DecodeResponse(d *fastjson.Dec, data []byte, resp *Response) error {
	d.Init(data)
	if d.TryNull() {
		return nil
	}
	if err := d.Expect('{'); err != nil {
		return err
	}
	if d.TryConsume('}') {
		return nil
	}
	for {
		key, err := d.ReadString()
		if err != nil {
			return err
		}
		known := ""
		switch {
		case foldEq(key, "items"):
			known = "items"
		case foldEq(key, "session_length"):
			known = "session_length"
		}
		if err := d.Expect(':'); err != nil {
			return err
		}
		switch known {
		case "items":
			if !d.TryNull() {
				if err := decodeItems(d, &resp.Items); err != nil {
					return err
				}
			}
		case "session_length":
			if !d.TryNull() {
				v, err := d.ReadInt()
				if err != nil {
					return err
				}
				resp.SessionLength = int(v)
			}
		default:
			if err := d.SkipValue(); err != nil {
				return err
			}
		}
		done, err := endObjectField(d)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// decodeItems decodes a JSON array into items, reusing the slice the way
// encoding/json does: elements within len are decoded into in place (absent
// fields keep old values), elements within cap are re-exposed via the
// equivalent of reflect.SetLen, and only growth past cap allocates.
func decodeItems(d *fastjson.Dec, items *[]core.ScoredItem) error {
	if err := d.Expect('['); err != nil {
		return err
	}
	out := *items
	n := 0
	if d.TryConsume(']') {
		if out == nil {
			out = []core.ScoredItem{}
		}
		*items = out[:0]
		return nil
	}
	for {
		if n >= len(out) {
			if n < cap(out) {
				// Re-expose capacity, zeroing the element first the way
				// encoding/json does when it lengthens a reused slice.
				out = out[:n+1]
				out[n] = core.ScoredItem{}
			} else {
				out = append(out, core.ScoredItem{})
			}
		}
		if !d.TryNull() {
			if err := decodeScoredItem(d, &out[n]); err != nil {
				return err
			}
		}
		n++
		switch c := d.Peek(); c {
		case ',':
			d.TryConsume(',')
		case ']':
			d.TryConsume(']')
			*items = out[:n]
			return nil
		default:
			return fmt.Errorf("json: invalid character %q after array element", c)
		}
	}
}

// decodeScoredItem decodes one item object leniently. core.ScoredItem has no
// json tags, so keys match the Go field names (ASCII-case-insensitively).
func decodeScoredItem(d *fastjson.Dec, it *core.ScoredItem) error {
	if err := d.Expect('{'); err != nil {
		return err
	}
	if d.TryConsume('}') {
		return nil
	}
	for {
		key, err := d.ReadString()
		if err != nil {
			return err
		}
		known := ""
		switch {
		case foldEq(key, "item"):
			known = "item"
		case foldEq(key, "score"):
			known = "score"
		}
		if err := d.Expect(':'); err != nil {
			return err
		}
		switch known {
		case "item":
			if !d.TryNull() {
				if it.Item, err = readItemID(d); err != nil {
					return err
				}
			}
		case "score":
			if !d.TryNull() {
				if it.Score, err = d.ReadFloat(); err != nil {
					return err
				}
			}
		default:
			if err := d.SkipValue(); err != nil {
				return err
			}
		}
		done, err := endObjectField(d)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}
