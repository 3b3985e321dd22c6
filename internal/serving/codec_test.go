package serving

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"serenade/internal/core"
	"serenade/internal/fastjson"
)

var codecRequests = []Request{
	{},
	{SessionKey: "s1", Item: 42, Consent: true},
	{SessionKey: "über-session \"quoted\" <tag>&", Item: 4095, Consent: false},
	{SessionKey: "ctl\x01\ttab", Item: 1<<32 - 1, Consent: true},
	{SessionKey: "bad\xffutf8", Item: 4096},
}

var codecResponses = []Response{
	{},
	{Items: []core.ScoredItem{}, SessionLength: 1},
	{Items: []core.ScoredItem{{Item: 3, Score: 0.5}}, SessionLength: 2},
	{Items: []core.ScoredItem{{Item: 0, Score: 0}, {Item: 4097, Score: 0.265511}, {Item: 1<<32 - 1, Score: 1e-9}}, SessionLength: -3},
	{Items: nil, SessionLength: 100},
}

// TestEncodeByteCompat proves every encoder matches json.Marshal byte for
// byte on representative values.
func TestEncodeByteCompat(t *testing.T) {
	for _, v := range codecRequests {
		want, _ := json.Marshal(v)
		if got := EncodeRequest(nil, &v); !bytes.Equal(got, want) {
			t.Errorf("EncodeRequest(%+v)\n got %s\nwant %s", v, got, want)
		}
	}
	for _, v := range codecResponses {
		want, _ := json.Marshal(v)
		if got := EncodeResponse(nil, &v); !bytes.Equal(got, want) {
			t.Errorf("EncodeResponse(%+v)\n got %s\nwant %s", v, got, want)
		}
	}
}

// strictRefDecode is the reference the server handlers used: a json.Decoder
// with DisallowUnknownFields.
func strictRefDecode(data []byte, out any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(out)
}

// lenientRefDecode is the reference the client used: a plain json.Decoder.
func lenientRefDecode(data []byte, out any) error {
	return json.NewDecoder(bytes.NewReader(data)).Decode(out)
}

// decodeInputs is a battery of documents exercising every semantic corner:
// null no-ops, case folding, duplicate keys, unknown fields, type errors,
// overflow, trailing data, escapes in keys and values. The
// recommendation_id and outcome documents are fields no schema here has,
// so every decoder must treat them as unknown.
var decodeInputs = []string{
	``, ` `, `null`, `{}`, `[]`, `"s"`, `0`, `true`,
	`{"session_id":"a","item_id":1,"consent":true}`,
	`{"SESSION_ID":"a","Item_Id":2,"CONSENT":false}`,
	`{"session_id":null,"item_id":null,"consent":null}`,
	`{"session_id":"a","session_id":"b"}`,
	`{"session_id":"esc-key"}`,
	`{"session_id":"😀 emoji"}`,
	`{"item_id":4294967295}`,
	`{"item_id":4294967296}`,
	`{"item_id":-1}`,
	`{"item_id":1.5}`,
	`{"item_id":1e2}`,
	`{"item_id":"5"}`,
	`{"consent":1}`,
	`{"unknown":1}`,
	`{"session_id":"a"} trailing garbage`,
	`{"session_id":"a",}`,
	`{"session_id":}`,
	`{"session_id" "a"}`,
	`{"recommendation_id":18446744073709551615,"item_id":3,"event":"click"}`,
	`{"recommendation_id":18446744073709551616}`,
	`{"event":""}`,
	`{"items":null,"session_length":5}`,
	`{"items":[],"session_length":0}`,
	`{"items":[{"Item":1,"Score":0.5}],"session_length":2,"recommendation_id":7}`,
	`{"items":[{"item":1,"score":2},{"ITEM":3}],"session_length":-2}`,
	`{"items":[{"Item":1,"Score":0.5,"Extra":[1,{"a":"b"}]}]}`,
	`{"items":[null,{"Item":2}]}`,
	`{"items":[{"Item":7,"Score":1}],"items":[{}]}`,
	`{"items":[{"Item":7,"Score":1}],"items":[],"items":[{}]}`,
	`{"items":[{"Item":7,"Score":1},{"Item":8,"Score":2}],"items":[{"Score":9}]}`,
	`{"items":[5]}`,
	`{"items":{}}`,
	`{"items":[{"Item":1}`,
	`{"session_length":1.0}`,
	`{"session_length":-9223372036854775808}`,
	`{"session_length":-9223372036854775809}`,
	`{"recommendation_id":1e3}`,
	`{"outcome":"attributed","rank":2,"variant":"a","pipeline":"knn"}`,
	`{"outcome":null,"rank":-5,"other":{"deep":[true,null]}}`,
	`{"rank":"3"}`,
	"{\"session_id\":\"bad \xff utf8\"}",
	"\t{\"consent\" : true }\n",
}

func TestDecodeRequestDifferential(t *testing.T) {
	var d fastjson.Dec
	for _, in := range decodeInputs {
		var want Request
		wantErr := strictRefDecode([]byte(in), &want)
		var got Request
		gotErr := DecodeRequest(&d, []byte(in), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("DecodeRequest(%q): err = %v, reference err = %v", in, gotErr, wantErr)
			continue
		}
		if wantErr == nil && got != want {
			t.Errorf("DecodeRequest(%q) = %+v, want %+v", in, got, want)
		}
	}
}

func TestDecodeResponseDifferential(t *testing.T) {
	var d fastjson.Dec
	for _, in := range decodeInputs {
		var want Response
		wantErr := lenientRefDecode([]byte(in), &want)
		var got Response
		gotErr := DecodeResponse(&d, []byte(in), &got)
		if (wantErr == nil) != (gotErr == nil) {
			t.Errorf("DecodeResponse(%q): err = %v, reference err = %v", in, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("DecodeResponse(%q) = %+v, want %+v", in, got, want)
		}
		if (got.Items == nil) != (want.Items == nil) {
			t.Errorf("DecodeResponse(%q): items nil-ness %v vs %v", in, got.Items == nil, want.Items == nil)
		}
	}
}

// TestDecodeResponseSliceReuse pins the capacity-reuse contract the pooled
// scratch depends on: a second decode into the same Response reuses the item
// backing array.
func TestDecodeResponseSliceReuse(t *testing.T) {
	var d fastjson.Dec
	var resp Response
	if err := DecodeResponse(&d, []byte(`{"items":[{"Item":1,"Score":1},{"Item":2,"Score":2}]}`), &resp); err != nil {
		t.Fatal(err)
	}
	first := &resp.Items[0]
	if err := DecodeResponse(&d, []byte(`{"items":[{"Item":9,"Score":9}]}`), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 1 || resp.Items[0].Item != 9 {
		t.Fatalf("items = %+v", resp.Items)
	}
	if &resp.Items[0] != first {
		t.Fatal("backing array was reallocated")
	}
}

// FuzzFastJSON is the differential fuzz target of the codec compatibility
// contract: for arbitrary bytes, every schema decode must agree with its
// encoding/json reference (strict for server-side schemas, lenient for
// client-side ones) on both error presence and decoded value, and every
// successfully decoded value must re-encode byte-identically to
// json.Marshal.
func FuzzFastJSON(f *testing.F) {
	f.Add([]byte(`{"session_id":"s1","item_id":42,"consent":true}`))
	f.Add([]byte(`{"SESSION_ID":"fold","Item_Id":2,"consent":null}`))
	f.Add([]byte(`{"recommendation_id":123456789,"item_id":7,"event":"conversion"}`))
	f.Add([]byte(`{"items":[{"Item":3,"Score":0.5},{"Item":4096,"Score":1e-9}],"session_length":2,"recommendation_id":9}`))
	f.Add([]byte(`{"items":[null,{}],"items":[],"unknown":[1,{"a":"b"},"\ud800"]}`))
	f.Add([]byte(`{"outcome":"attributed","rank":3,"variant":"b","pipeline":"knn+popular"}`))
	f.Add([]byte(`{"session_id":"😀  ","item_id":4294967295}`))
	f.Add([]byte(`{"item_id":4294967296}`))
	f.Add([]byte(`{"session_length":-1,"items":[{"Item":1,"Score":2},{"Item":3}],"items":[{"Score":9}]}`))
	f.Add([]byte("{\"session_id\":\"raw \xff bytes\"}"))
	f.Add([]byte(`[{"not":"an object"}]`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var d fastjson.Dec

		{
			var want, got Request
			wantErr := strictRefDecode(data, &want)
			gotErr := DecodeRequest(&d, data, &got)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("Request decode divergence on %q: %v vs %v", data, gotErr, wantErr)
			}
			if wantErr == nil {
				if got != want {
					t.Fatalf("Request value divergence on %q: %+v vs %+v", data, got, want)
				}
				wantB, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if gotB := EncodeRequest(nil, &got); !bytes.Equal(gotB, wantB) {
					t.Fatalf("Request encode divergence: %s vs %s", gotB, wantB)
				}
			}
		}

		{
			var want, got Response
			wantErr := lenientRefDecode(data, &want)
			gotErr := DecodeResponse(&d, data, &got)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("Response decode divergence on %q: %v vs %v", data, gotErr, wantErr)
			}
			if wantErr == nil {
				if !reflect.DeepEqual(got, want) || (got.Items == nil) != (want.Items == nil) {
					t.Fatalf("Response value divergence on %q: %+v vs %+v", data, got, want)
				}
				wantB, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if gotB := EncodeResponse(nil, &got); !bytes.Equal(gotB, wantB) {
					t.Fatalf("Response encode divergence: %s vs %s", gotB, wantB)
				}
			}
		}
	})
}
