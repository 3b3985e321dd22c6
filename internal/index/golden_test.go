package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"serenade/internal/dataflow"
	"serenade/internal/sessions"
	"serenade/internal/synth"
)

// TestGoldenBuild pins the bytes of the index the benchmark harness
// serves: ecom-60m-sim at seed 1, last day held out, the renumbered
// training days built and written with SaveV2, at three capacities.
func TestGoldenBuild(t *testing.T) {
	cfg, err := synth.Profile("ecom-60m-sim")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 1
	full, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train := sessions.Renumber(sessions.TemporalSplit(full, 1).Train)
	for _, c := range []struct {
		capacity int
		want     string
	}{
		{0, "2e8fb528ff005315050c3d39f3540cd5305dbae4b99a5aa94771a28a4743f27f"},
		{500, "cff9507af172c1a4c72bcce90373631c39333058f8bf2ec96e192e0529f3430c"},
		{1000, "3ffa9acbf9a55381f4b7bfc78cb1b60782575325475893aba03cb3a92edea81c"},
	} {
		idx, err := Build(dataflow.NewEngine(0), train, c.capacity)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := SaveV2(&buf, idx); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("capacity %d: SaveV2 digest %s, want %s", c.capacity, got, c.want)
		}
	}
}
