package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// metricDef is one metric the benchmark prints: its name and unit exactly
// as BENCHMARK.json lists them.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics printed with --trace 0, on every workload.
var endToEnd = []metricDef{
	{"campaign_ref_s", "s"},
	{"checks_per_ref_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics printed with --trace 1, on every workload. A
// layer the workload never reaches reads 0.
var perLayer = []metricDef{
	{"campaign.wall_s", "s"},
	{"campaign.cpu_s", "s"},
	{"host.kernel_ms", "ms"},
	{"catalog.load_s", "s"},
	{"suite.generate_s", "s"},
	{"suite.compress_s", "s"},
	{"suite.validate_s", "s"},
	{"suite.identical_skip_share", "ratio"},
	{"opt.calls", "count"},
	{"opt.us_per_call", "us"},
	{"opt.memo_exprs", "count"},
	{"exec.runs", "count"},
	{"exec.self_s", "s"},
	{"exec.us_per_run", "us"},
	{"exec.rows_out", "count"},
	{"exec.nljoin_plan_share", "ratio"},
	{"exec.nljoin_s", "s"},
	{"refengine.runs", "count"},
	{"refengine.self_s", "s"},
	{"rescache.lookups", "count"},
	{"rescache.hit_ratio", "ratio"},
	{"rescache.evictions", "count"},
	{"rescache.mb", "MiB"},
	{"fuzz.driver_s", "s"},
	{"fuzz.skip_share", "ratio"},
	{"verify.run_s", "s"},
	{"verify.pairs", "count"},
	{"verify.us_per_pair", "us"},
	{"par.cpu_util", "ratio"},
	{"gc.cpu_share", "ratio"},
	{"gc.alloc_mb", "MiB"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs rejects a metric table with a malformed or repeated name or a
// malformed unit, before any result is printed under it.
func checkDefs(defs []metricDef) error {
	seen := make(map[string]bool)
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			return fmt.Errorf("metric name %q: want letters, digits, '_', '.' and '-', at most 64, starting with a letter or digit", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			return fmt.Errorf("metric %s: bad unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			return fmt.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills every metric of defs from values; a metric missing from
// values is a bug in the benchmark, not a zero.
func newResult(defs []metricDef, values map[string]float64) (*result, error) {
	r := &result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}

func (r *result) line() string {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(data)
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	cpu      time.Duration // user + system CPU of the whole process
	gcCPU    float64       // runtime/metrics estimate of GC CPU seconds
	busyCPU  float64       // the same estimate for all non-idle CPU, so gcCPU/busyCPU is a share
	allocB   uint64        // cumulative heap bytes allocated
	maxRSSKB int64         // peak resident set so far
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	samples := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(samples)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:    samples[0].Value.Float64(),
		allocB:   samples[1].Value.Uint64(),
		busyCPU:  samples[2].Value.Float64() - samples[3].Value.Float64(),
		maxRSSKB: ru.Maxrss,
	}
}

// memPeak samples the memory the Go runtime holds from the operating
// system (mapped minus released back) every couple of milliseconds and
// keeps the peak: the resident memory of a pure-Go process, measured per
// campaign. The process-wide getrusage maxrss can only grow, so it cannot
// give a per-campaign peak to take a median over.
type memPeak struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

var memSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

func heldBytes() uint64 {
	s := append([]metrics.Sample(nil), memSamples...)
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// startMemPeak returns memory to the OS first, so one campaign's peak does
// not include what earlier campaigns left mapped.
func startMemPeak() *memPeak {
	debug.FreeOSMemory()
	m := &memPeak{stop: make(chan struct{}), peak: heldBytes()}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.peak = max(m.peak, heldBytes())
			}
		}
	}()
	return m
}

// endMiB stops the sampler and returns the peak in MiB.
func (m *memPeak) endMiB() float64 {
	close(m.stop)
	m.wg.Wait()
	m.peak = max(m.peak, heldBytes())
	return float64(m.peak) / (1 << 20)
}
