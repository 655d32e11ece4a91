package main

import (
	"testing"

	"ehjoin/internal/tcpnet"
)

// TestCheckWorkers pins the -workers bound checked before the coordinator
// listens or spawns anything: 0 used to panic with a division by zero
// after the listener was up, and more than tcpnet.MaxWorkers was refused
// only after every worker process had been spawned and accepted.
func TestCheckWorkers(t *testing.T) {
	for _, tc := range []struct {
		n  int
		ok bool
	}{
		{-1, false},
		{0, false},
		{1, true},
		{2, true},
		{tcpnet.MaxWorkers, true},
		{tcpnet.MaxWorkers + 1, false},
	} {
		if err := checkWorkers(tc.n); (err == nil) != tc.ok {
			t.Errorf("checkWorkers(%d) = %v, want ok=%v", tc.n, err, tc.ok)
		}
	}
}
