package dataflow

import "testing"

func TestNewEngineDefaults(t *testing.T) {
	if NewEngine(0).Workers() < 1 {
		t.Error("default engine must have at least one worker")
	}
	if NewEngine(3).Workers() != 3 {
		t.Error("explicit worker count not respected")
	}
}
