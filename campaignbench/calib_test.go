package main

import (
	"math"
	"testing"
	"time"
)

func TestSpeedProbe(t *testing.T) {
	p := startSpeedProbe()
	m := p.mark()
	if m.samples < probeWarmup || m.kernel <= 0 {
		t.Fatalf("after start-up: %d samples, %v kernel time; want at least %d samples", m.samples, m.kernel, probeWarmup)
	}
	// No sample since m yet: since falls back to every sample so far.
	if k := p.since(m); k <= 0 {
		t.Fatalf("kernel time with no new samples = %v", k)
	}
	c0 := p.cpu()
	for end := time.Now().Add(5 * probePeriod); time.Now().Before(end); {
	}
	k := p.since(m)
	c1 := p.cpu()
	p.end()
	if now := p.mark(); now.samples <= m.samples {
		t.Errorf("no samples taken during %v of busy work", 5*probePeriod)
	}
	if f := refScale(k); !(f > 0.01 && f < 100) || math.IsInf(f, 0) {
		t.Errorf("scale %v: the kernel took %v per call, far from the nominal %v", f, k, refKernelNominal)
	}
	if c1 < c0 {
		t.Errorf("cpu went backwards: %v then %v", c0, c1)
	}
}

func TestAllowedCPUs(t *testing.T) {
	if cpus := allowedCPUs(); len(cpus) == 0 {
		t.Error("no CPUs allowed")
	}
}
