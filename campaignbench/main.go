// Command campaignbench times whole qtrtest oracle campaigns end to end and,
// in a separate traced run, layer by layer. See README.md for the
// workloads, the metrics and how to run it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"qtrtest/internal/par"
)

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
	spans    string
	sz       sizes
}

// minReps is the fewest campaigns an untraced run measures, however long
// they take; setupReps is how often each campaign's set-up is repeated.
const (
	minReps   = 3
	setupReps = 10
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: suite-pairs, fuzz-eet or verify-mutants")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: campaign i builds its TPC-H data at a seed derived from it")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long the untraced run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.spans, "spans", "", "with --trace 1, also write every span to this file as JSON lines")
	flag.Parse()
	o.trace = trace == 1
	// One worker on one P: the process then has no idle P for the garbage
	// collector's idle mark workers to run on, so its CPU time does not
	// grow when the rest of the host goes quiet (README.md, "Reference
	// seconds").
	o.workers = 1
	runtime.GOMAXPROCS(1)
	o.sz = fullSizes
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
}

// run measures one workload and prints provenance, the report digest and,
// as the last line, the result object.
func run(o options, stdout, stderr io.Writer) error {
	if err := checkDefs(endToEnd); err != nil {
		return err
	}
	if err := checkDefs(perLayer); err != nil {
		return err
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return err
	}
	prov, err := json.Marshal(map[string]any{
		"workload": w.name, "seed": o.seed, "trace": o.trace, "seconds": o.seconds,
		"workers": o.workers, "num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit(), "cpus": allowedCPUs(),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "provenance %s\n", prov)
	var res *result
	if o.trace {
		res, err = measureLayers(w, o, stdout, stderr)
	} else {
		res, err = measureEndToEnd(w, o, stdout, stderr)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, res.line())
	return nil
}

// measureEndToEnd runs set-up and campaign back to back, each campaign on
// data from its own derived seed, until the time is up, and reports
// medians. Times are CPU seconds scaled to a reference core (calib.go), not
// wall time: on a shared host both the wall time and the CPU time of the
// same work depend on what the neighbours do (README.md, "Reference
// seconds").
func measureEndToEnd(w workload, o options, stdout, stderr io.Writer) (*result, error) {
	var setups, campaigns, rates, peaks, cpus, walls, kernels []float64
	res := &result{Correct: true}
	speed := startSpeedProbe()
	defer speed.end()
	began := time.Now()
	for i := 0; ; i++ {
		seed := par.DeriveSeed(o.seed, i)
		mem := startMemPeak()
		m0 := speed.mark()
		var e *env
		var setupCPU []float64
		for r := 0; r < setupReps; r++ {
			runtime.GC()
			c := speed.cpu()
			e = w.setup(seed, nil)
			setupCPU = append(setupCPU, (speed.cpu() - c).Seconds())
		}
		runtime.GC()
		c, t := speed.cpu(), time.Now()
		out, err := w.run(campaign{workers: o.workers, sz: o.sz}, e)
		cpu, wall := (speed.cpu() - c).Seconds(), time.Since(t).Seconds()
		kernel := speed.since(m0)
		scale := refScale(kernel)
		peaks = append(peaks, mem.endMiB())
		res.Attempted += out.attempted
		res.Failed += out.failed
		if err != nil {
			fmt.Fprintf(stderr, "campaign %d (seed %d): %v\n", i, seed, err)
			res.Correct = false
			break
		}
		fmt.Fprintf(stdout, "report_sha256 %s campaign=%d seed=%d %s\n", w.name, i, seed, out.reportSHA())
		for _, s := range setupCPU {
			setups = append(setups, s*scale)
		}
		campaigns = append(campaigns, cpu*scale)
		rates = append(rates, float64(out.checks)/(cpu*scale))
		cpus, walls, kernels = append(cpus, cpu), append(walls, wall), append(kernels, kernel.Seconds()*1e3)
		elapsed := time.Since(began).Seconds()
		if i+1 >= minReps && elapsed+elapsed/float64(i+1) > o.seconds {
			break
		}
	}
	res.Correct = res.Correct && res.Failed == 0
	values := map[string]float64{
		"campaign_ref_s":   median(campaigns),
		"checks_per_ref_s": median(rates),
		"setup_s":          median(setups),
		"peak_rss_mb":      median(peaks),
	}
	fmt.Fprintf(stderr, "%s: %d campaigns in %.1fs; per campaign: ref_s %.3f, cpu_s %.3f, wall_s %.3f, kernel_ms %.3f, peak MiB %.1f; process maxrss %d KiB\n",
		w.name, len(campaigns), time.Since(began).Seconds(), campaigns, cpus, walls, kernels, peaks, readUsage().maxRSSKB)
	full, err := newResult(endToEnd, values)
	if err != nil {
		return nil, err
	}
	full.Correct, full.Attempted, full.Failed = res.Correct, res.Attempted, res.Failed
	return full, nil
}

// campaignPhases are the spans that make up a campaign proper, as opposed
// to set-up and the optimizer replay.
var campaignPhases = []string{"suite.generate", "suite.compress", "suite.validate", "fuzz.run", "verify.run"}

// measureLayers runs one campaign untraced and the same campaign traced,
// checks the two did the same work, and reports the per-layer metrics.
func measureLayers(w workload, o options, stdout, stderr io.Writer) (*result, error) {
	seed := par.DeriveSeed(o.seed, 0)
	res := &result{Correct: true}

	runtime.GC()
	e := w.setup(seed, nil)
	speed := startSpeedProbe()
	m0 := speed.mark()
	u0, c0, t := readUsage(), speed.cpu(), time.Now()
	plain, err := w.run(campaign{workers: o.workers, sz: o.sz}, e)
	plainWall := time.Since(t).Seconds()
	u1, plainCPU := readUsage(), (speed.cpu() - c0).Seconds()
	kernel := speed.since(m0)
	speed.end()
	res.Attempted += plain.attempted
	res.Failed += plain.failed
	if err != nil {
		fmt.Fprintf(stderr, "untraced campaign: %v\n", err)
		res.Correct = false
	} else {
		fmt.Fprintf(stdout, "report_sha256 %s campaign=0 seed=%d %s\n", w.name, seed, plain.reportSHA())
	}

	runtime.GC()
	tr := newTracer()
	root := tr.begin("bench.traced", o.workers) // the only span of that name
	e = w.setup(seed, tr)
	p := &execProbe{tr: tr}
	probe.Store(p)
	traced, err := w.run(campaign{workers: o.workers, sz: o.sz, tr: tr}, e)
	probe.Store(nil)
	tr.finish(root)
	res.Attempted += traced.attempted
	res.Failed += traced.failed
	if err != nil {
		fmt.Fprintf(stderr, "traced campaign: %v\n", err)
		res.Correct = false
	}
	if res.Correct && !reflect.DeepEqual(plain.counters, traced.counters) {
		fmt.Fprintf(stderr, "trace consistency: untraced counters %v, traced %v\n", plain.counters, traced.counters)
		res.Correct = false
	}
	if n := traced.layer["opt.replay_plan_mismatches"]; n > 0 {
		fmt.Fprintf(stderr, "optimizer replay: %v of %v edge plans differ from Graph.EdgePlan\n", n, traced.layer["opt.replayed"])
		res.Correct = false
	}
	res.Correct = res.Correct && res.Failed == 0

	spans := tr.snapshot()
	lt := layerTotals(spans)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v := map[string]float64{
		"campaign.wall_s":            plainWall,
		"campaign.cpu_s":             plainCPU,
		"host.kernel_ms":             1e3 * kernel.Seconds(),
		"catalog.load_s":             lt["catalog.load"].wall,
		"suite.generate_s":           lt["suite.generate"].wall,
		"suite.compress_s":           lt["suite.compress"].wall,
		"suite.validate_s":           lt["suite.validate"].wall,
		"suite.identical_skip_share": traced.layer["suite.identical_skip_share"],
		"opt.calls":                  traced.layer["opt.calls"],
		"opt.us_per_call":            1e6 * ratio(lt["opt.optimize"].wall, float64(lt["opt.optimize"].calls)),
		"opt.memo_exprs":             traced.layer["opt.memo_exprs"],
		"exec.runs":                  float64(lt["exec.run"].calls),
		"exec.self_s":                lt["exec.run"].self,
		"exec.us_per_run":            1e6 * ratio(lt["exec.run"].wall, float64(lt["exec.run"].calls)),
		"exec.rows_out":              float64(p.rowsOut.Load()),
		"exec.nljoin_plan_share":     ratio(float64(p.nlRuns.Load()), float64(lt["exec.run"].calls)),
		"exec.nljoin_s":              time.Duration(p.nlNanos.Load()).Seconds(),
		"refengine.runs":             float64(lt["refengine.run"].calls),
		"refengine.self_s":           lt["refengine.run"].self,
		"fuzz.driver_s":              lt["fuzz.run"].self,
		"fuzz.skip_share":            traced.layer["fuzz.skip_share"],
		"verify.run_s":               lt["verify.run"].wall,
		"verify.pairs":               traced.layer["verify.pairs"],
		"verify.us_per_pair":         1e6 * ratio(lt["verify.run"].wall, traced.layer["verify.pairs"]),
		"par.cpu_util":               ratio(plainCPU, plainWall*float64(o.workers)),
		"gc.cpu_share":               ratio(u1.gcCPU-u0.gcCPU, u1.busyCPU-u0.busyCPU),
		"gc.alloc_mb":                float64(u1.allocB-u0.allocB) / (1 << 20),
	}
	var hits, lookups, evictions, bytes int64
	for _, c := range plain.caches {
		st := c.Stats()
		hits += st.Hits
		lookups += st.Hits + st.Misses
		evictions += st.Evictions
		bytes += st.Bytes
	}
	v["rescache.lookups"] = float64(lookups)
	v["rescache.hit_ratio"] = ratio(float64(hits), float64(lookups))
	v["rescache.evictions"] = float64(evictions)
	v["rescache.mb"] = float64(bytes) / (1 << 20)

	attributed, tracedCampaign := 0.0, 0.0
	for name, t := range lt {
		if name != "bench.traced" {
			attributed += t.self
		}
	}
	for _, name := range campaignPhases {
		tracedCampaign += lt[name].wall
	}
	v["trace.coverage"] = ratio(attributed, lt["bench.traced"].wall*float64(o.workers))
	v["trace.overhead"] = ratio(tracedCampaign, plainWall)

	writeLayerTable(stderr, lt)
	if o.spans != "" {
		if err := writeSpans(o.spans, spans); err != nil {
			return nil, err
		}
	}
	full, err := newResult(perLayer, v)
	if err != nil {
		return nil, err
	}
	full.Correct, full.Attempted, full.Failed = res.Correct, res.Attempted, res.Failed
	return full, nil
}

// writeLayerTable prints the traced run's layers, busiest first.
func writeLayerTable(w io.Writer, lt map[string]layerTotal) {
	names := make([]string, 0, len(lt))
	for n := range lt {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return lt[names[i]].self > lt[names[j]].self })
	fmt.Fprintf(w, "%-16s %9s %12s %12s\n", "span", "calls", "wall_s", "self_s")
	for _, n := range names {
		fmt.Fprintf(w, "%-16s %9d %12.4f %12.4f\n", n, lt[n].calls, lt[n].wall, lt[n].self)
	}
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		rec := struct {
			ID      int     `json:"id"`
			Parent  int     `json:"parent"`
			Name    string  `json:"name"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
			Width   int     `json:"width"`
		}{s.id, s.parent, s.name, float64(s.start.Microseconds()), float64(s.end.Microseconds()), s.width}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// median returns 0 for no samples, which only happens when the first
// campaign failed and the result already says correct: false.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// commit names the code under test: the BENCH_COMMIT the launcher found in
// git, or else a digest of the checkout's Go sources, so a run outside a
// git repository still says which code it measured.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
