package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lasagne/internal/campaign"
	"lasagne/internal/core"
	"lasagne/internal/core/cache"
	"lasagne/internal/memmodel"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/phoenix"
	"lasagne/internal/serve"
	"lasagne/internal/serve/client"
	"lasagne/internal/sim"
)

// spsc compiles spsc_ring, the cheapest kernel to simulate.
func spsc(t *testing.T) *program {
	t.Helper()
	k := phoenix.Get("spsc_ring")
	p, err := compile(k.Name, k.Source, true)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func flipDigit(s string) string {
	i := strings.IndexAny(s, "0123456789")
	return s[:i] + string('0'+(s[i]-'0'+1)%10) + s[i+1:]
}

func TestOutputCheckRejectsFlippedDigit(t *testing.T) {
	p := spsc(t)
	want := spscOutput()
	got, err := simOutput(p.x86)
	if err != nil {
		t.Fatal(err)
	}
	if err := outputErr(got, want); err != nil {
		t.Fatalf("spsc_ring x86-64 against its closed form: %v", err)
	}
	err = outputErr(flipDigit(got), want)
	if err == nil {
		t.Fatal("a flipped digit passed the output check")
	}
	if knownFault(reference{out: want}, err) {
		t.Fatal("a wrong output of a program the fault does not hit was taken for the fault")
	}
	hit := reference{out: want, fault: true}
	if !knownFault(hit, err) || knownFault(hit, errors.New("simulator crashed")) {
		t.Fatal("only a wrong output of a program the fault hits is the known fault")
	}
}

// TestReassociateFault reproduces the known fault on linear_regression:
// the verifier flags the module right after reassociate, and the natively
// built binary prints what the source does not mean. It skips once the
// fault is fixed.
func TestReassociateFault(t *testing.T) {
	k := phoenix.Get("linear_regression")
	refs, err := references([]*program{{name: k.Name, src: k.Source}})
	if err != nil {
		t.Fatal(err)
	}
	ref := refs[k.Name]
	if ref.out != "3001\n402540\n1281111\n444648\n" {
		t.Fatalf("source semantics of linear_regression: %q", ref.out)
	}
	p, err := compile(k.Name, k.Source, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := simOutput(p.native)
	if err != nil {
		t.Fatal(err)
	}
	if !ref.fault && got == ref.out {
		t.Skip("the reassociate fault is fixed")
	}
	if !ref.fault || got == ref.out {
		t.Fatalf("fault flagged %t, yet native output %q vs source %q", ref.fault, got, ref.out)
	}
	m, _ := minic.Compile(k.Name, k.Source)
	t.Logf("%v\nnative binary prints %q; the source means %q", opt.RunPipeline(m, opt.StandardPipeline, true), got, ref.out)
}

func TestEngineCheckRejectsCycleDifference(t *testing.T) {
	p := spsc(t)
	th, err := simulateBin(p.x86, "x86", sim.Threaded, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := simulateBin(p.x86, "x86", sim.Reference, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSimulation(th, ref); err != nil {
		t.Fatalf("engines disagree on spsc_ring: %v", err)
	}
	for name, mutate := range map[string]func(*simRun){
		"cycles": func(r *simRun) { r.cycles++ },
		"instrs": func(r *simRun) { r.instrs-- },
		"output": func(r *simRun) { r.out = flipDigit(r.out) },
	} {
		bad := ref
		mutate(&bad)
		if sameSimulation(th, bad) == nil {
			t.Errorf("a difference in %s passed the engine check", name)
		}
	}
}

// flipByte returns a copy of o with one byte of its text changed.
func flipByte(o *obj.File) *obj.File {
	c, err := obj.Unmarshal(o.Marshal())
	if err != nil {
		panic(err)
	}
	c.Section(".text").Data[0] ^= 1
	return c
}

func TestReplayMatchesCoreAndCheckRejectsDifference(t *testing.T) {
	p := spsc(t)
	want, wantSt, _, err := core.Translate(p.x86, coldConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	got, gotSt, pc, err := replay(p.x86, cache.New(0), tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTranslation(got, want, gotSt, wantSt); err != nil {
		t.Fatalf("replay of spsc_ring: %v", err)
	}
	if pc.run == 0 || gotSt.CacheMisses == 0 || gotSt.CacheHits != 0 {
		t.Fatalf("cold replay ran %d passes, %d misses, %d hits", pc.run, gotSt.CacheMisses, gotSt.CacheHits)
	}
	self := tr.selfTimes(0)
	for _, stage := range []string{"lifter", "refine", "fences.place", "opt.gvn", "backend"} {
		if _, ok := self[stage]; !ok {
			t.Errorf("no %s span in a cold replay", stage)
		}
	}
	if sameTranslation(flipByte(got), want, gotSt, wantSt) == nil {
		t.Error("a replayed object one byte off passed")
	}
	st := *gotSt
	st.FencesFinal++
	if sameTranslation(got, want, &st, wantSt) == nil {
		t.Error("replay statistics one fence off passed")
	}
}

func TestWarmReplayHitsAndSkipsSuffix(t *testing.T) {
	p := spsc(t)
	c := cache.New(0)
	cfg := core.Default()
	cfg.Cache = c
	want, wantSt, _, err := core.Translate(p.x86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, wantSt, _, err = core.Translate(p.x86, cfg); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	got, gotSt, pc, err := replay(p.x86, c, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTranslation(got, want, gotSt, wantSt); err != nil {
		t.Fatalf("warm replay: %v", err)
	}
	if gotSt.CacheMisses != 0 || pc.run != 0 {
		t.Fatalf("warm replay: %d misses, %d passes run", gotSt.CacheMisses, pc.run)
	}
	for name := range tr.selfTimes(0) {
		if strings.HasPrefix(name, "opt") || name == "fences.place" {
			t.Errorf("warm replay recorded a %s span", name)
		}
	}
}

func TestColdCheckRejectsHitsAndDifferentBytes(t *testing.T) {
	p := spsc(t)
	cfg := coldConfig(2)
	o, st, _, err := core.Translate(p.x86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := &translation{obj: o, bytes: o.Marshal(), stats: st}
	if err := checkCold(ref.bytes, st, cfg.Cache, ref); err != nil {
		t.Fatalf("cold translation against itself: %v", err)
	}
	if checkCold(flipByte(o).Marshal(), st, cfg.Cache, ref) == nil {
		t.Error("a parallel translation one byte off passed")
	}
	hit := *st
	hit.CacheHits, hit.CacheMisses = 1, st.CacheMisses-1
	if checkCold(ref.bytes, &hit, cfg.Cache, ref) == nil {
		t.Error("a cache hit passed the cold check")
	}
}

func TestStreamCheckRejectsDifferentModule(t *testing.T) {
	want := map[string][]byte{"a": []byte("object-a"), "b": []byte("object-b")}
	res := func() map[string]*client.ModuleResult {
		return map[string]*client.ModuleResult{
			"a": {Name: "a", Status: 200, Object: []byte("object-a")},
			"b": {Name: "b", Status: 200, Object: []byte("object-b")},
		}
	}
	if err := streamErr(res(), want); err != nil {
		t.Fatalf("identical batch: %v", err)
	}
	bad := res()
	bad["b"].Object = []byte("object-c")
	if streamErr(bad, want) == nil {
		t.Error("a reassembled module differing from the unary one passed")
	}
	bad = res()
	delete(bad, "a")
	if streamErr(bad, want) == nil {
		t.Error("a batch missing a module passed")
	}
	bad = res()
	bad["a"].Status = 500
	if streamErr(bad, want) == nil {
		t.Error("a failed module passed")
	}
	if unaryErr(&serve.Response{Object: "b2JqZWN0LWM="}, want["a"]) == nil { // "object-c"
		t.Error("a unary answer differing from the offline object passed")
	}
}

func TestWarmCheckRejectsShedMissesAndRetries(t *testing.T) {
	if err := warmErr(0, 0, 10, 10); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][4]int64{{1, 0, 10, 10}, {0, 1, 10, 10}, {0, 0, 11, 10}} {
		if warmErr(c[0], c[1], c[2], c[3]) == nil {
			t.Errorf("shed %d, misses %d, attempts %d for %d calls passed", c[0], c[1], c[2], c[3])
		}
	}
}

func TestTableCheckRejectsOneWrongCell(t *testing.T) {
	paper := memmodel.PaperReorderTable()
	if err := tableErr(paper, paper); err != nil {
		t.Fatal(err)
	}
	bad := paper
	if bad[1][2] == memmodel.Unsafe {
		bad[1][2]++
	} else {
		bad[1][2] = memmodel.Unsafe
	}
	if tableErr(bad, paper) == nil {
		t.Error("a table one cell off passed")
	}
}

func TestCampaignCheck(t *testing.T) {
	cold := &campaign.Result{Orbits: 10, Checked: 10}
	warm := &campaign.Result{Orbits: 10, Hits: 10}
	if err := errors.Join(campaignErr(cold, nil), campaignErr(warm, cold)); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct{ r, cold *campaign.Result }{
		"unsound":      {&campaign.Result{Orbits: 10, Checked: 10, Unsound: []campaign.Finding{{Msg: "x"}}}, nil},
		"unresolved":   {&campaign.Result{Orbits: 10, Checked: 9, Unresolved: 1}, nil},
		"warm miss":    {&campaign.Result{Orbits: 10, Hits: 9, Checked: 1}, cold},
		"orbit change": {&campaign.Result{Orbits: 11, Hits: 11}, cold},
	} {
		if campaignErr(c.r, c.cold) == nil {
			t.Errorf("%s passed the campaign check", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "translate", CPUStart: 0, CPUEnd: 100, Parent: -1},
		{Name: "opt", CPUStart: 10, CPUEnd: 60, Parent: 0},
		{Name: "opt.gvn", CPUStart: 20, CPUEnd: 50, Parent: 1},
		{Name: "backend", CPUStart: 70, CPUEnd: 90, Parent: 0},
	}
	self := selfTimes(spans, 0)
	want := map[string]time.Duration{"translate": 30, "opt": 20, "opt.gvn": 30, "backend": 20}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, self[k], v)
		}
	}
	if self := selfTimes(spans, 2); self["opt.gvn"] != 30 || len(self) != 2 {
		t.Errorf("self times from span 2: %v", self)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max = %v", q)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestNearestRank(t *testing.T) {
	// One round's mix: three cheap operations, one dearer, one dearest.
	round := []float64{1, 1, 1, 5, 9}
	for _, rounds := range []int{1, 2, 7} {
		var xs []float64
		for i := 0; i < rounds; i++ {
			xs = append(xs, round...)
		}
		if p50, p90 := nearestRank(xs, 0.5), nearestRank(xs, 0.9); p50 != 1 || p90 != 9 {
			t.Errorf("%d rounds: p50 %v, p90 %v; want 1 and 9 whatever the number of rounds", rounds, p50, p90)
		}
	}
	if v := nearestRank(nil, 0.5); v != 0 {
		t.Errorf("no samples: %v", v)
	}
}

// TestManifest holds BENCHMARK.json's metrics to the ones the benchmark
// reports: the same names, units and order.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		manifest []struct{ Name, Unit string }
		code     []metricSpec
	}{{"end_to_end", m.EndToEnd, endToEnd}, {"per_layer", m.PerLayer, perLayer}} {
		if len(c.manifest) != len(c.code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", c.kind, len(c.manifest), len(c.code))
			continue
		}
		for i, want := range c.manifest {
			if got := c.code[i]; got.name != want.Name || got.unit != want.Unit {
				t.Errorf("%s %d: benchmark reports %s in %s, BENCHMARK.json declares %s in %s", c.kind, i, got.name, got.unit, want.Name, want.Unit)
			}
		}
	}
}

func TestFinishHoldsMetricsToManifest(t *testing.T) {
	full := func(trace bool) *bench {
		b := newBench(1, time.Second, trace, t.TempDir())
		specs := endToEnd
		if trace {
			specs = perLayer
		}
		for _, m := range specs {
			b.set(m.name, m.unit, 1)
		}
		return b
	}
	if err := full(false).finish(); err != nil {
		t.Fatalf("a complete untraced result: %v", err)
	}
	b := full(false)
	delete(b.metrics, "op_ms_p90")
	if b.finish() == nil {
		t.Error("an untraced result without op_ms_p90 passed")
	}
	b = full(false)
	b.set("round_ms", "s", 1)
	if b.finish() == nil {
		t.Error("a metric in the wrong unit passed")
	}
	b = full(false)
	b.set("serve_ms_p50", "ms", 1)
	if b.finish() == nil {
		t.Error("a metric BENCHMARK.json does not declare passed")
	}
	b = full(true)
	delete(b.metrics, "sim.load_ms")
	if err := b.finish(); err != nil || b.metrics["sim.load_ms"] != (metric{0, "ms"}) {
		t.Errorf("a traced run that does not simulate: %v, sim.load_ms = %v; want 0 ms", err, b.metrics["sim.load_ms"])
	}
}
