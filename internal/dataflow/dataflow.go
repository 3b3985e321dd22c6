// Package dataflow holds the Engine argument that index.Build still takes
// and ignores; the index is built by core.BuildIndex. Do not use it in new
// code.
package dataflow

import "runtime"

// Engine is a worker count the index builder does not read.
//
// Deprecated: index.Build ignores it; call core.BuildIndex.
type Engine struct {
	workers int
}

// NewEngine returns an Engine. workers <= 0 selects GOMAXPROCS.
//
// Deprecated: index.Build ignores the Engine; call core.BuildIndex.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// Workers reports the worker count the engine was made with.
func (e *Engine) Workers() int { return e.workers }
