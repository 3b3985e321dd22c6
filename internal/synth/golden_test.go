package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"serenade/internal/sessions"
)

// datasetDigest hashes everything a dataset carries: its name, NumItems,
// every session's id, items and times in order, and the flat click log.
func datasetDigest(ds *sessions.Dataset) string {
	le := binary.LittleEndian
	var b []byte
	b = append(b, ds.Name...)
	b = le.AppendUint64(b, uint64(ds.NumItems))
	b = le.AppendUint64(b, uint64(len(ds.Sessions)))
	for i := range ds.Sessions {
		s := &ds.Sessions[i]
		b = le.AppendUint32(b, uint32(s.ID))
		b = le.AppendUint32(b, uint32(len(s.Items)))
		for j, it := range s.Items {
			b = le.AppendUint32(b, uint32(it))
			b = le.AppendUint64(b, uint64(s.Times[j]))
		}
	}
	b = le.AppendUint64(b, uint64(len(ds.Clicks)))
	for _, c := range ds.Clicks {
		b = le.AppendUint32(b, uint32(c.Session))
		b = le.AppendUint32(b, uint32(c.Item))
		b = le.AppendUint64(b, uint64(c.Time))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenDatasets pins the offline data path byte for byte: the
// generator's output for the benchmark harness's profile and for a test
// profile, and the harness's last-day temporal split and renumbered
// training set. A change that reorders RNG draws, sessions or clicks, or
// that derives a different click log, changes a digest.
func TestGoldenDatasets(t *testing.T) {
	cfg, err := Profile("ecom-60m-sim")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 1
	full, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	small, err := Generate(Small(7))
	if err != nil {
		t.Fatal(err)
	}
	split := sessions.TemporalSplit(full, 1)
	for _, c := range []struct {
		name string
		ds   *sessions.Dataset
		want string
	}{
		{"ecom-60m-sim seed 1", full, "4e1c9ae3b6f6b50bd647bce0f79d10bff99db3650bb5d007ec3359fb04a43725"},
		{"small seed 7", small, "066fc881a605d1eca7fdddef7bb4a320ad4dddefb5856ea2a5aba9f331451a68"},
		{"train", split.Train, "2cbc014bd42ac560816c6efaa287a920b038f68dc90c6df83ba84628ea990a23"},
		{"test", split.Test, "b2dd3867d3c011295d670b7d3ab42d5cc2cc0f8edc0e8b141c874c031752845f"},
		{"renumbered train", sessions.Renumber(split.Train), "2cbc014bd42ac560816c6efaa287a920b038f68dc90c6df83ba84628ea990a23"},
	} {
		if got := datasetDigest(c.ds); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
