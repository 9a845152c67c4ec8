// Command perfbench is the repository's end-to-end benchmark. One process
// runs one named workload for a fixed time, checks every output it times
// against a reference computed apart from the code under test, and prints
// one JSON result as the last line of standard output:
//
//	go run . --workload translate-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, the same five for
// every workload; with --trace 1 a separate, instrumented pass reports every
// per-layer metric, 0 for the layers the workload does not run. README.md
// documents the workloads, the metrics and their layers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times each workload builds its set-up; setup_s
// reports the median so one slow build on a shared machine does not move it.
const setupReps = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists, in BENCHMARK.json's order, the metrics every untraced run
// reports, whatever its workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"round_ms", "ms"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
}

// perLayer lists, in BENCHMARK.json's order, the metrics every traced run
// reports. A workload sets those of the layers it runs; the others read 0.
var perLayer = func() []metricSpec {
	ms := []metricSpec{
		{"lifter.ms", "ms"}, {"lifter.ir_instrs", "count"},
		{"refine.ms", "ms"}, {"refine.rewrites", "count"}, {"refine.ptr_casts_after", "count"},
		{"fences.globals_ms", "ms"}, {"fences.escape_ms", "ms"}, {"fences.place_ms", "ms"},
		{"fences.merge_ms", "ms"}, {"fences.strengthen_ms", "ms"},
	}
	for _, p := range distinctPasses() {
		ms = append(ms, metricSpec{"opt." + p + "_ms", "ms"})
	}
	return append(ms, []metricSpec{
		{"opt.driver_ms", "ms"}, {"opt.passes_run", "count"}, {"opt.passes_skipped", "count"},
		{"cache.ms", "ms"}, {"backend.ms", "ms"},
		{"core.other_ms", "ms"}, {"core.span_coverage", "ratio"}, {"trace.overhead_pct", "%"},
		{"fences.placed", "count"}, {"fences.merged", "count"}, {"fences.final", "count"},
		{"fences.acquire_loads", "count"}, {"fences.release_stores", "count"},
		{"opt.final_instrs", "count"}, {"backend.ldar_stlr", "count"},
		{"backend.dmb", "count"}, {"backend.text_bytes", "bytes"},
		{"cache.misses", "count"}, {"cache.entries", "count"}, {"cache.hits", "count"}, {"cache.hit_ratio", "ratio"},
		{"serve.handler_ms_p50", "ms"}, {"serve.compute_ms_p50", "ms"}, {"serve.transport_ms_p50", "ms"},
		{"serve.shed", "count"}, {"stream.func_frames", "count"}, {"client.attempts", "count"},
		{"sim.load_ms", "ms"}, {"sim.run_ms.x86", "ms"}, {"sim.run_ms.arm_native", "ms"},
		{"sim.run_ms.arm_translated", "ms"}, {"sim.instrs", "count"}, {"sim.span_share", "ratio"},
		{"sim.cycles.translated", "count"}, {"sim.cycles.native", "count"}, {"sim.cycles_vs_native", "ratio"},
		{"campaign.generated", "count"}, {"campaign.orbits", "count"}, {"campaign.prune_factor", "ratio"},
		{"campaign.checked", "count"}, {"campaign.hits", "count"}, {"campaign.us_per_check", "us"},
		{"campaign.store_bytes", "bytes"}, {"memmodel.fig11a_cells", "count"},
	}...)
}()

// metricSpec is a metric's name and unit as BENCHMARK.json declares them.
type metricSpec struct{ name, unit string }

// opCount tallies one kind of operation.
type opCount struct{ attempted, failed int64 }

// bench is one invocation: its settings, and everything it reports.
type bench struct {
	seed    int64
	seconds time.Duration
	trace   bool
	outDir  string
	workers int
	// rssWindow, when set, ends a peak_rss_mb window at that period as well
	// as at each round, for workloads with few, long rounds.
	rssWindow time.Duration

	kinds    []string // operation kinds in first-seen order
	ops      map[string]*opCount
	metrics  map[string]metric
	problems []string

	// opMS holds the CPU time of every timed operation that did not fail,
	// for op_ms_p50 and op_ms_p90.
	opMS []float64
}

func newBench(seed int64, seconds time.Duration, trace bool, outDir string) *bench {
	return &bench{
		seed: seed, seconds: seconds, trace: trace, outDir: outDir,
		workers: runtime.NumCPU(),
		ops:     map[string]*opCount{},
		metrics: map[string]metric{},
	}
}

// op counts one timed operation of the given kind. A failed operation makes
// the run incorrect unless known names the documented program fault that
// explains it; then it only counts against failed.
func (b *bench) op(kind string, err error, known bool) {
	c := b.ops[kind]
	if c == nil {
		c = &opCount{}
		b.ops[kind] = c
		b.kinds = append(b.kinds, kind)
	}
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if !known {
		b.problem("%s: %v", kind, err)
	}
}

// problem records a failed check: the run reports correct=false.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	b.problems = append(b.problems, msg)
}

// check records err, if any, as a failed check.
func (b *bench) check(what string, err error) {
	if err != nil {
		b.problem("%s: %v", what, err)
	}
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// timedOp records the CPU time of one timed operation for op_ms_p50 and
// op_ms_p90, unless it failed.
func (b *bench) timedOp(cpu time.Duration, err error) {
	if err == nil {
		b.opMS = append(b.opMS, ms(cpu))
	}
}

// setRound reports round_ms from the CPU times of the run's rounds, and the
// operation percentiles from the operations timedOp recorded.
func (b *bench) setRound(roundMS []float64) {
	if b.trace {
		return
	}
	b.set("round_ms", "ms", median(roundMS))
	b.set("op_ms_p50", "ms", nearestRank(b.opMS, 0.50))
	b.set("op_ms_p90", "ms", nearestRank(b.opMS, 0.90))
}

// finish holds the metrics to the manifest: every metric of the run's kind
// is reported, in its unit, and nothing else is. A traced run reports 0 for
// the per-layer metrics of layers its workload does not run.
func (b *bench) finish() error {
	specs := endToEnd
	if b.trace {
		specs = perLayer
	}
	declared := map[string]bool{}
	for _, m := range specs {
		declared[m.name] = true
		got, ok := b.metrics[m.name]
		switch {
		case !ok && b.trace:
			b.set(m.name, m.unit, 0)
		case !ok:
			return fmt.Errorf("metric %s was not measured", m.name)
		case got.Unit != m.unit:
			return fmt.Errorf("metric %s is in %s, not %s", m.name, got.Unit, m.unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %s is %v", m.name, got.Value)
		}
	}
	for name := range b.metrics {
		if !declared[name] {
			return fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	return nil
}

// timedRounds calls round until the run's time is spent, at least once. A
// round is never cut short, so every run attempts whole rounds of the same
// operations. Each round starts after a garbage collection, so it does not
// pay for the previous round's garbage; peak_rss_mb is the median of the
// rounds' peak resident set sizes.
func (b *bench) timedRounds(round func(i int)) {
	rss := startRSS(b.rssWindow)
	deadline := time.Now().Add(b.seconds)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		runtime.GC()
		round(n)
		rss.cut()
	}
	b.setPeakRSS(rss.close())
}

// setup runs build setupReps times, reports the median CPU time of one
// build as setup_s and returns the last build's value. Earlier builds are released with done.
func setup[T any](b *bench, build func() (T, error), done func(T)) (T, error) {
	var v T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && done != nil {
			done(v)
		}
		runtime.GC()
		c0 := cpuTime()
		var err error
		if v, err = build(); err != nil {
			return v, err
		}
		secs = append(secs, (cpuTime() - c0).Seconds())
	}
	if !b.trace {
		b.set("setup_s", "s", median(secs))
	}
	return v, nil
}

func (b *bench) result() result {
	r := result{Correct: len(b.problems) == 0, Metrics: b.metrics}
	for _, k := range b.kinds {
		c := b.ops[k]
		r.Attempted += c.attempted
		r.Failed += c.failed
		fmt.Printf("ops %-14s attempted=%d failed=%d\n", k, c.attempted, c.failed)
	}
	return r
}

// rssSampler reads the process's resident set size every few milliseconds
// and keeps the highest value of each window. A window ends at each cut,
// and also every `every` when that is set.
type rssSampler struct {
	mu    sync.Mutex
	cur   float64
	peaks []float64
	stop  chan struct{}
	done  chan struct{}
}

// startRSS first returns the memory the set-up and the reference checks
// freed to the OS, so the windows see only the timed work's footprint.
func startRSS(every time.Duration) *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{cur: rssMB(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		start := time.Now()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			v := rssMB()
			s.mu.Lock()
			s.cur = math.Max(s.cur, v)
			s.mu.Unlock()
			if every > 0 && time.Since(start) >= every {
				s.cut()
				start = time.Now()
			}
		}
	}()
	return s
}

// cut ends the current window.
func (s *rssSampler) cut() {
	v := rssMB()
	s.mu.Lock()
	s.peaks = append(s.peaks, math.Max(s.cur, v))
	s.cur = v
	s.mu.Unlock()
}

// close stops the sampler, waits for it, and returns the window peaks.
func (s *rssSampler) close() []float64 {
	close(s.stop)
	<-s.done
	return s.peaks
}

// rssMB is the resident set size now (0 where /proc is unavailable).
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// setPeakRSS reports the median of the window peaks as peak_rss_mb.
func (b *bench) setPeakRSS(peaks []float64) {
	if !b.trace {
		b.set("peak_rss_mb", "MB", median(peaks))
	}
}

// cpuTime is the CPU time the process has used, all threads, user and
// system. Unlike wall time it leaves out the time the hypervisor steals
// from this virtual machine, which on a shared host makes the wall times of
// identical rounds differ up to threefold (README, "Steadiness").
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// nearestRank is the smallest x in xs with at least a share q of xs at or
// below it (0 for none). Unlike an interpolated quantile it is always one of
// the samples, so where a run mixes operations of different kinds it reads
// one kind's cost rather than a blend that moves with the number of rounds.
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

var workloads = map[string]func(*bench) error{
	"translate-cold": translateCold,
	"serve-warm":     serveWarm,
	"simulate":       simulate,
	"litmus":         litmus,
}

func main() {
	name := flag.String("workload", "", "workload: translate-cold, serve-warm, simulate or litmus")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from an instrumented run")
	outDir := flag.String("out", ".bench_build/perfbench", "directory for scratch state and span dumps")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := newBench(*seed, time.Duration(*seconds)*time.Second, *trace == 1, *outDir)
	if err := wl(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if err := b.finish(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(b.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(b.problems) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d failed checks; first: %s\n", len(b.problems), strings.TrimSpace(b.problems[0]))
	}
	fmt.Println(string(out))
}
