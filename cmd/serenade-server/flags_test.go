package main

import (
	"flag"
	"slices"
	"testing"
)

// serverFlags is every knob of serenade-server, sorted. A flag missing from
// the command or present without an entry here fails TestFlags, so a new
// knob is a reviewed change to this list.
var serverFlags = []string{
	"addr",
	"debug-addr",
	"fallback-popular",
	"gogc",
	"gomemlimit",
	"history",
	"idempotency-ttl",
	"index",
	"k",
	"log-json",
	"m",
	"recommendations",
	"session-ttl",
	"slo-error-budget",
	"slo-latency-budget",
	"slo-latency-p99",
	"slow-query",
	"store-dir",
	"trace-ring",
	"trace-sample",
	"trending-half-life",
	"wal-sync",
	"wal-sync-interval",
}

// TestFlags pins the server's flag names to the list above.
func TestFlags(t *testing.T) {
	var o options
	var got []string
	o.flags().VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // sorted by name
	if !slices.Equal(got, serverFlags) {
		t.Errorf("flags = %q (%d)\nwant %q (%d)", got, len(got), serverFlags, len(serverFlags))
	}
}
