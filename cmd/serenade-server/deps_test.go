package main

import (
	"os/exec"
	"strings"
	"testing"
)

// serverDeps is every package of this module the server binary may link:
// the request path and what it is built from. A reproduction package
// (cluster, compressed, incremental, legacy, synth, ...) or the root
// facade, which re-exports them, appearing in the closure fails the test.
var serverDeps = map[string]bool{
	"serenade/cmd/serenade-server": true,
	"serenade/internal/core":       true,
	"serenade/internal/dataflow":   true, // deprecated handle kept for benchmark/inputs.go
	"serenade/internal/dheap":      true,
	"serenade/internal/failpoint":  true,
	"serenade/internal/fastjson":   true,
	"serenade/internal/index":      true,
	"serenade/internal/kvstore":    true,
	"serenade/internal/metrics":    true,
	"serenade/internal/obs":        true,
	"serenade/internal/obs/slo":    true,
	"serenade/internal/rank":       true,
	"serenade/internal/serving":    true,
	"serenade/internal/sessions":   true,
	"serenade/internal/trending":   true,
}

// TestServerDeps pins the server's dependency closure within this module
// to the allowlist above.
func TestServerDeps(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if (pkg == "serenade" || strings.HasPrefix(pkg, "serenade/")) && !serverDeps[pkg] {
			t.Errorf("serenade-server links %s, which is not on the allowlist", pkg)
		}
	}
}
