package netsim

import (
	"testing"

	"repro/internal/metrics"
)

func TestSimMetricsMatchRunCounters(t *testing.T) {
	r := metrics.NewRegistry()
	EnableMetrics(r)
	defer EnableMetrics(nil)

	sim := New(nsf(4), Config{
		Algorithm:   MinCost,
		Restoration: Active,
		FailureRate: 0.5,
		RepairTime:  2,
		Seed:        5,
	})
	m := sim.Run(poisson(14, 400, 25, 5))

	// No warm-up configured, so the sim counters and the metric counters
	// describe the same population.
	if got := r.Counter("netsim_established_total", "").Value(); got != int64(m.Accepted) {
		t.Fatalf("established = %d, accepted = %d", got, m.Accepted)
	}
	if got := r.Counter("netsim_blocked_total", "").Value(); got != int64(m.Blocked) {
		t.Fatalf("blocked = %d, want %d", got, m.Blocked)
	}
	if got := r.Counter("netsim_failures_total", "").Value(); got != int64(m.FailureEvents) {
		t.Fatalf("failures = %d, want %d", got, m.FailureEvents)
	}
	if got := r.Counter("netsim_restored_total", "").Value(); got != int64(m.Recovered) {
		t.Fatalf("restored = %d, want %d", got, m.Recovered)
	}
	if got := r.Counter("netsim_dropped_total", "").Value(); got != int64(m.RecoveryFailed) {
		t.Fatalf("dropped = %d, want %d", got, m.RecoveryFailed)
	}
	// Teardowns: every accepted connection either departed normally or was
	// dropped by an unrecovered failure.
	tear := r.Counter("netsim_teardown_total", "").Value()
	if tear+int64(m.RecoveryFailed) != int64(m.Accepted) {
		t.Fatalf("teardowns %d + dropped %d != accepted %d", tear, m.RecoveryFailed, m.Accepted)
	}
	// Routing latency histogram saw every arrival.
	if n := r.Histogram("netsim_route_seconds", "").Count(); n != int64(m.Offered) {
		t.Fatalf("route observations = %d, offered = %d", n, m.Offered)
	}
	if m.Recovered > 0 {
		if n := r.Histogram("netsim_restore_seconds", "").Count(); n == 0 {
			t.Fatal("no restoration latency observations")
		}
	}
}
