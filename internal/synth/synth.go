// Package synth generates synthetic e-commerce clickstream datasets.
//
// The paper evaluates on proprietary bol.com datasets (ecom-1m … ecom-180m)
// and two public dumps (retailrocket, rsc15) that are not redistributable.
// This generator is the substitute documented in DESIGN.md: it produces click
// logs whose statistics match what the paper reports as relevant in Table 1
// (session length percentiles, item counts, day ranges) and whose sequential
// structure gives nearest-neighbour methods genuine signal.
//
// The generative model is a latent-interest Markov process: items are
// partitioned into interest clusters; a session starts in a cluster drawn
// from a Zipf popularity distribution and at each step either stays in its
// cluster (probability PStay), moves to an adjacent cluster on a ring
// (modelling drifting interest), or teleports to a random cluster. Within a
// cluster, items are drawn from a cluster-local Zipf distribution, and with
// probability RevisitProb the session re-clicks an earlier item (users
// returning to a product detail page). Sessions in the same cluster
// therefore share items, which is exactly the neighbourhood structure
// session-kNN methods exploit.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"serenade/internal/sessions"
)

// Config parameterises dataset generation.
type Config struct {
	Name        string
	NumSessions int
	NumItems    int
	Days        int
	// Clusters is the number of latent interest clusters.
	Clusters int
	// ZipfS is the Zipf skew (>1) for item popularity within a cluster and
	// for cluster popularity.
	ZipfS float64
	// PStay is the probability of staying in the current cluster per step.
	PStay float64
	// RevisitProb is the probability of re-clicking an earlier session item.
	RevisitProb float64
	// LengthMu and LengthSigma parameterise the lognormal session-length
	// distribution (lengths are max(2, round(exp(N(mu, sigma))))).
	LengthMu, LengthSigma float64
	// MaxLength caps session length.
	MaxLength int
	Seed      int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.NumSessions <= 0:
		return fmt.Errorf("synth: NumSessions must be positive, got %d", c.NumSessions)
	case c.NumItems < 2:
		return fmt.Errorf("synth: NumItems must be at least 2, got %d", c.NumItems)
	case c.Days <= 0:
		return fmt.Errorf("synth: Days must be positive, got %d", c.Days)
	case c.Clusters <= 0 || c.Clusters > c.NumItems:
		return fmt.Errorf("synth: Clusters must be in [1, NumItems], got %d", c.Clusters)
	case c.ZipfS <= 1:
		return fmt.Errorf("synth: ZipfS must exceed 1, got %g", c.ZipfS)
	case c.PStay < 0 || c.PStay > 1:
		return fmt.Errorf("synth: PStay must be in [0,1], got %g", c.PStay)
	case c.RevisitProb < 0 || c.RevisitProb > 1:
		return fmt.Errorf("synth: RevisitProb must be in [0,1], got %g", c.RevisitProb)
	case c.MaxLength < 2:
		return fmt.Errorf("synth: MaxLength must be at least 2, got %d", c.MaxLength)
	}
	return nil
}

// baseTime anchors all generated timestamps (2020-09-13T12:26:40Z); absolute
// values are irrelevant, only ordering and day spans matter.
const baseTime = int64(1_600_000_000)

// Generate produces a dataset for the configuration. Generation is
// deterministic for a fixed Seed.
func Generate(c Config) (*sessions.Dataset, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))

	clusterOf := make([]int, 0, c.Clusters)  // cluster -> first item index
	clusterLen := make([]int, 0, c.Clusters) // cluster -> number of items
	per := c.NumItems / c.Clusters
	rem := c.NumItems % c.Clusters
	start := 0
	for k := 0; k < c.Clusters; k++ {
		n := per
		if k < rem {
			n++
		}
		clusterOf = append(clusterOf, start)
		clusterLen = append(clusterLen, n)
		start += n
	}

	clusterZipf := rand.NewZipf(rng, c.ZipfS, 1, uint64(c.Clusters-1))
	itemZipfs := make([]*rand.Zipf, c.Clusters)
	for k := range itemZipfs {
		if clusterLen[k] > 0 {
			itemZipfs[k] = rand.NewZipf(rng, c.ZipfS, 1, uint64(clusterLen[k]-1))
		}
	}

	sessionsOut := make([]sessions.Session, 0, c.NumSessions)
	// Sessions take capped sub-slices of two shared arenas, a fresh chunk
	// each time the current one cannot hold the next session.
	var itemArena []sessions.ItemID
	var timeArena []int64
	daySeconds := int64(24 * 3600)
	for sid := 0; sid < c.NumSessions; sid++ {
		length := sampleLength(rng, c)
		if cap(itemArena)-len(itemArena) < length {
			itemArena = make([]sessions.ItemID, 0, max(arenaChunk, length))
			timeArena = make([]int64, 0, max(arenaChunk, length))
		}
		day := int64(sid % c.Days) // spread sessions evenly over days
		// Diurnal curve: most traffic in the evening. Mixture of a broad
		// daytime component and an evening peak.
		var secOfDay int64
		if rng.Float64() < 0.6 {
			secOfDay = int64(18*3600 + rng.Intn(4*3600)) // 18:00-22:00 peak
		} else {
			secOfDay = int64(8*3600 + rng.Intn(12*3600)) // 08:00-20:00 broad
		}
		t := baseTime + day*daySeconds + secOfDay

		cluster := int(clusterZipf.Uint64())
		n := len(itemArena)
		items := itemArena[n : n : n+length]
		times := timeArena[n : n : n+length]
		for j := 0; j < length; j++ {
			if j > 0 {
				t += 10 + int64(rng.ExpFloat64()*40) // dwell time
				r := rng.Float64()
				switch {
				case r < c.PStay:
					// stay in cluster
				case r < c.PStay+(1-c.PStay)*0.7:
					// drift to an adjacent cluster on the ring
					if rng.Intn(2) == 0 {
						cluster = (cluster + 1) % c.Clusters
					} else {
						cluster = (cluster - 1 + c.Clusters) % c.Clusters
					}
				default:
					cluster = int(clusterZipf.Uint64())
				}
			}
			if j > 0 && rng.Float64() < c.RevisitProb {
				items = append(items, items[rng.Intn(len(items))])
				times = append(times, t)
				continue
			}
			local := int(itemZipfs[cluster].Uint64())
			items = append(items, sessions.ItemID(clusterOf[cluster]+local))
			times = append(times, t)
		}
		itemArena = itemArena[:n+length]
		timeArena = timeArena[:n+length]
		sessionsOut = append(sessionsOut, sessions.Session{
			ID:    sessions.SessionID(sid),
			Items: items,
			Times: times,
		})
	}
	// Renumber so session ids ascend with session time, which the VMIS-kNN
	// index requires.
	return sessions.RenumberSessions(c.Name, sessionsOut), nil
}

// arenaChunk is the click capacity of one of Generate's session arenas.
const arenaChunk = 1 << 16

func sampleLength(rng *rand.Rand, c Config) int {
	l := int(math.Round(math.Exp(rng.NormFloat64()*c.LengthSigma + c.LengthMu)))
	if l < 2 {
		l = 2
	}
	if l > c.MaxLength {
		l = c.MaxLength
	}
	return l
}

// profiles holds scaled-down stand-ins for each dataset in Table 1. Sizes
// are reduced to laptop scale while preserving the relative ordering of the
// datasets and the session-length distribution shape (public datasets have a
// shorter tail, p99 ≈ 19; the proprietary ones a longer one, p99 ≈ 36-39).
var profiles = map[string]Config{
	"retailrocket-sim": {
		Name: "retailrocket-sim", NumSessions: 4_000, NumItems: 3_000, Days: 10,
		Clusters: 60, ZipfS: 1.3, PStay: 0.88, RevisitProb: 0.06,
		LengthMu: 1.05, LengthSigma: 0.72, MaxLength: 80, Seed: 1,
	},
	"rsc15-sim": {
		Name: "rsc15-sim", NumSessions: 40_000, NumItems: 4_000, Days: 30,
		Clusters: 80, ZipfS: 1.25, PStay: 0.88, RevisitProb: 0.06,
		LengthMu: 1.1, LengthSigma: 0.72, MaxLength: 80, Seed: 2,
	},
	"ecom-1m-sim": {
		Name: "ecom-1m-sim", NumSessions: 12_000, NumItems: 8_000, Days: 30,
		Clusters: 150, ZipfS: 1.2, PStay: 0.85, RevisitProb: 0.08,
		LengthMu: 1.35, LengthSigma: 0.95, MaxLength: 200, Seed: 3,
	},
	"ecom-60m-sim": {
		Name: "ecom-60m-sim", NumSessions: 60_000, NumItems: 20_000, Days: 29,
		Clusters: 300, ZipfS: 1.2, PStay: 0.85, RevisitProb: 0.08,
		LengthMu: 1.4, LengthSigma: 1.0, MaxLength: 200, Seed: 4,
	},
	"ecom-90m-sim": {
		Name: "ecom-90m-sim", NumSessions: 90_000, NumItems: 25_000, Days: 91,
		Clusters: 350, ZipfS: 1.2, PStay: 0.85, RevisitProb: 0.08,
		LengthMu: 1.4, LengthSigma: 1.0, MaxLength: 200, Seed: 5,
	},
	"ecom-180m-sim": {
		Name: "ecom-180m-sim", NumSessions: 180_000, NumItems: 35_000, Days: 91,
		Clusters: 450, ZipfS: 1.2, PStay: 0.85, RevisitProb: 0.08,
		LengthMu: 1.42, LengthSigma: 1.0, MaxLength: 200, Seed: 6,
	},
}

// Profile returns the named dataset profile.
func Profile(name string) (Config, error) {
	c, ok := profiles[name]
	if !ok {
		return Config{}, fmt.Errorf("synth: unknown profile %q (known: %v)", name, Profiles())
	}
	return c, nil
}

// Profiles lists the available profile names in Table 1 order.
func Profiles() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return profileRank(names[i]) < profileRank(names[j]) })
	return names
}

func profileRank(name string) int {
	order := []string{"retailrocket-sim", "rsc15-sim", "ecom-1m-sim", "ecom-60m-sim", "ecom-90m-sim", "ecom-180m-sim"}
	for i, n := range order {
		if n == name {
			return i
		}
	}
	return len(order)
}

// Small returns a small, fast configuration suitable for tests and examples.
func Small(seed int64) Config {
	return Config{
		Name: "small", NumSessions: 2_000, NumItems: 500, Days: 10,
		Clusters: 25, ZipfS: 1.3, PStay: 0.85, RevisitProb: 0.05,
		LengthMu: 1.2, LengthSigma: 0.8, MaxLength: 60, Seed: seed,
	}
}
