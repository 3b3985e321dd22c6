package cluster

import (
	"fmt"
	"sync"

	"serenade/internal/core"
	"serenade/internal/obs"
	"serenade/internal/serving"
)

// Pool is a set of stateful serving replicas behind sticky-session routing:
// the in-process equivalent of the paper's two Serenade pods behind istio
// session affinity. Each replica holds its own evolving-session store and a
// reference to the shared, replicated index.
type Pool struct {
	idx *core.Index
	cfg serving.Config

	mu       sync.RWMutex
	ring     *Ring
	replicas map[string]*serving.Server
}

// NewPool creates a pool of n replicas named pod-0 … pod-(n-1), each serving
// from the shared index with the given configuration.
func NewPool(idx *core.Index, cfg serving.Config, n int) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: pool needs at least one replica, got %d", n)
	}
	p := &Pool{
		idx:      idx,
		cfg:      cfg,
		ring:     NewRing(0),
		replicas: make(map[string]*serving.Server),
	}
	for i := 0; i < n; i++ {
		if err := p.AddReplica(fmt.Sprintf("pod-%d", i)); err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

// AddReplica spins up a new stateful replica and joins it to the ring.
// Sessions remapped onto it start empty — the state-loss trade-off §4.2
// accepts for scaling events.
func (p *Pool) AddReplica(name string) error {
	srv, err := serving.NewServer(p.idx, p.cfg)
	if err != nil {
		return fmt.Errorf("cluster: starting replica %s: %w", name, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, exists := p.replicas[name]; exists {
		srv.Close()
		return fmt.Errorf("cluster: replica %s already exists", name)
	}
	p.replicas[name] = srv
	p.ring.Add(name)
	return nil
}

// RemoveReplica simulates a pod failure or scale-down: the replica leaves
// the ring and its session state is lost.
func (p *Pool) RemoveReplica(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	srv, ok := p.replicas[name]
	if !ok {
		return fmt.Errorf("cluster: unknown replica %s", name)
	}
	p.ring.Remove(name)
	delete(p.replicas, name)
	return srv.Close()
}

// Route returns the replica name owning a session key.
func (p *Pool) Route(sessionKey string) (string, bool) {
	return p.ring.Node(sessionKey)
}

// Replica returns the named replica's server.
func (p *Pool) Replica(name string) (*serving.Server, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	s, ok := p.replicas[name]
	return s, ok
}

// Replicas returns the replica names currently in the ring.
func (p *Pool) Replicas() []string { return p.ring.Nodes() }

// Stats snapshots every replica's serving counters, keyed by replica name —
// the per-pod view a load test or operator dashboard aggregates.
func (p *Pool) Stats() map[string]serving.Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[string]serving.Stats, len(p.replicas))
	for name, srv := range p.replicas {
		out[name] = srv.Stats()
	}
	return out
}

// Health snapshots every replica's overload telemetry, keyed and stamped by
// replica name — the in-process analogue of the proxy's /proxy/health fan-out.
// A load test consumes this to correlate burn rate with offered load per pod.
func (p *Pool) Health() map[string]obs.HealthSignal {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[string]obs.HealthSignal, len(p.replicas))
	for name, srv := range p.replicas {
		h := srv.Health()
		h.Replica = name
		out[name] = h
	}
	return out
}

// Recommend routes the request to the session's sticky replica and serves
// it there.
func (p *Pool) Recommend(req serving.Request) (serving.Response, error) {
	node, ok := p.Route(req.SessionKey)
	if !ok {
		return serving.Response{}, fmt.Errorf("cluster: no replicas available")
	}
	p.mu.RLock()
	srv := p.replicas[node]
	p.mu.RUnlock()
	if srv == nil {
		return serving.Response{}, fmt.Errorf("cluster: replica %s vanished", node)
	}
	return srv.Recommend(req)
}

// Close shuts down every replica.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var first error
	for name, srv := range p.replicas {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
		p.ring.Remove(name)
		delete(p.replicas, name)
	}
	return first
}
