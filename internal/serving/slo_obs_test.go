package serving

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"serenade/internal/obs/slo"
)

// sloState decodes a /debug/slo endpoint entry.
type sloState struct {
	Endpoint string `json:"endpoint"`
	Windows  []struct {
		Window          string  `json:"window"`
		Total           uint64  `json:"total"`
		LatencyBurnRate float64 `json:"latency_burn_rate"`
	} `json:"windows"`
	FastBurn        bool    `json:"fast_burn"`
	SlowBurn        bool    `json:"slow_burn"`
	BudgetRemaining float64 `json:"budget_remaining"`
}

func fetchSLO(t *testing.T, url string) []sloState {
	t.Helper()
	resp, err := http.Get(url + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Endpoints []sloState `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Endpoints
}

// TestDebugSLOOverAndUnderBudget drives the same request load against two
// servers whose objectives differ, pushing one deterministically over budget
// (every request violates a 1ns threshold) and leaving the other untouched
// (no request violates a 10s threshold).
func TestDebugSLOOverAndUnderBudget(t *testing.T) {
	over := testServer(t, Config{SLOLatencyThreshold: time.Nanosecond})
	under := testServer(t, Config{SLOLatencyThreshold: 10 * time.Second})
	for i := 0; i < 50; i++ {
		for _, s := range []*Server{over, under} {
			if _, err := s.Recommend(Request{SessionKey: "u1", Item: popularItem(), Consent: true}); err != nil {
				t.Fatal(err)
			}
		}
	}

	tsOver := httptest.NewServer(over.Handler())
	defer tsOver.Close()
	eps := fetchSLO(t, tsOver.URL)
	if len(eps) != 1 || eps[0].Endpoint != "recommend" {
		t.Fatalf("/debug/slo endpoints = %+v", eps)
	}
	st := eps[0]
	if st.Windows[0].Total != 50 {
		t.Fatalf("1m window total = %d, want 50", st.Windows[0].Total)
	}
	if st.Windows[0].LatencyBurnRate < slo.FastBurnRate || !st.FastBurn {
		t.Fatalf("all-slow traffic did not push over budget: %+v", st)
	}
	if st.BudgetRemaining != 0 {
		t.Fatalf("budget remaining = %v under 100x burn", st.BudgetRemaining)
	}

	tsUnder := httptest.NewServer(under.Handler())
	defer tsUnder.Close()
	st = fetchSLO(t, tsUnder.URL)[0]
	if st.Windows[0].LatencyBurnRate != 0 || st.FastBurn || st.SlowBurn {
		t.Fatalf("all-fast traffic burned budget: %+v", st)
	}
	if st.BudgetRemaining != 1 {
		t.Fatalf("budget remaining = %v with zero burn", st.BudgetRemaining)
	}
}

// TestHealthSignal checks the overload telemetry surface with every
// contributor enabled: in-flight requests, the SLO engine and the runtime.
func TestHealthSignal(t *testing.T) {
	s := testServer(t, Config{
		SLOLatencyThreshold: time.Nanosecond, // everything burns
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				s.Recommend(Request{SessionKey: "u", Item: popularItem(), Consent: false})
			}
		}(g)
	}
	wg.Wait()

	h := s.Health()
	if !h.FastBurn || h.BurnRate < slo.FastBurnRate {
		t.Fatalf("burn state missing from health: %+v", h)
	}
	if h.Goroutines == 0 || h.Time.IsZero() {
		t.Fatalf("runtime fields unfilled: %+v", h)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"in_flight", "slo_burn_rate", "goroutines"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("/debug/health missing %q: %v", key, decoded)
		}
	}
}
