package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"lasagne/internal/core"
	"lasagne/internal/core/cache"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/par"
	"lasagne/internal/sim"
)

// translation is one reference translation: core.Translate with Jobs=1 and
// a fresh cache. Every timed translation must reproduce its bytes.
type translation struct {
	obj   *obj.File
	bytes []byte
	stats *core.Stats
}

// translateInputs is translate-cold's set-up: the six kernels and the
// seed's generated programs, compiled to x86-64 objects.
type translateInputs struct{ kern, gen []*program }

func (in translateInputs) all() []*program {
	return append(append([]*program(nil), in.kern...), in.gen...)
}

// coldConfig is the translation a cold user asks for: full Lasagne, up to
// nproc pipeline workers and an empty cache of its own.
func coldConfig(jobs int) core.Config {
	cfg := core.Default()
	cfg.Jobs = jobs
	cfg.Cache = cache.New(0)
	return cfg
}

func translateCold(b *bench) error {
	in, err := setup(b, func() (translateInputs, error) {
		k, err := kernelPrograms(false)
		if err != nil {
			return translateInputs{}, err
		}
		g, err := genProgramsFor(b.seed)
		return translateInputs{k, g}, err
	}, nil)
	if err != nil {
		return err
	}
	all := in.all()
	refs, err := referenceTranslations(b, all)
	if err != nil {
		return err
	}
	if b.trace {
		return translateTraced(b, in, refs)
	}

	// The serial reference translations and one translation of every input
	// with nproc pipeline workers, which must reproduce them byte for byte,
	// are the warm-up. The timed rounds translate with one worker and one
	// scheduler thread: with more, the CPU time also counts Go scheduler
	// threads spinning while they wait for the next function. A round
	// translates the six kernels, then the generated programs; each module
	// is one operation.
	translateRound(b, all, refs, b.workers)
	b.opMS = nil
	prev := runtime.GOMAXPROCS(1)
	var roundMS []float64
	b.timedRounds(func(int) {
		roundMS = append(roundMS, ms(translateRound(b, in.kern, refs, 1)+translateRound(b, in.gen, refs, 1)))
	})
	runtime.GOMAXPROCS(prev)
	b.setRound(roundMS)
	return nil
}

// referenceTranslations translates every program serially, then checks the
// results apart from the translator: each translated object must print
// what its x86-64 input prints, and that must be what the source means,
// unless the known reassociate fault miscompiled the input before the
// translator saw it (which simulate counts, and this run only reports).
func referenceTranslations(b *bench, ps []*program) (map[string]*translation, error) {
	refs := map[string]*translation{}
	for _, p := range ps {
		o, st, _, err := core.Translate(p.x86, coldConfig(1))
		if err != nil {
			return nil, fmt.Errorf("%s: reference translation: %w", p.name, err)
		}
		refs[p.name] = &translation{obj: o, bytes: o.Marshal(), stats: st}
	}
	want, err := references(ps)
	if err != nil {
		return nil, err
	}
	miscompiled := make([]bool, len(ps))
	errs := par.Collect(len(ps), b.workers, func(i int) error {
		p := ps[i]
		x86, err := simOutput(p.x86)
		if err != nil {
			return fmt.Errorf("%s x86-64: %w", p.name, err)
		}
		arm, err := simOutput(refs[p.name].obj)
		if err != nil {
			return fmt.Errorf("%s translated: %w", p.name, err)
		}
		if err := outputErr(arm, x86); err != nil {
			return fmt.Errorf("%s: translated object: %w", p.name, err)
		}
		if err := outputErr(x86, want[p.name].out); err != nil {
			if knownFault(want[p.name], err) {
				miscompiled[i] = true
				return nil
			}
			return fmt.Errorf("%s: x86-64 input: %w", p.name, err)
		}
		return nil
	})
	for i, err := range errs {
		b.check("reference translation", err)
		if miscompiled[i] {
			fmt.Printf("input %s: the reassociate fault miscompiled it before translation\n", ps[i].name)
		}
	}
	return refs, nil
}

// simOutput runs an object on the threaded simulator.
func simOutput(o *obj.File) (string, error) {
	m, err := sim.NewMachine(o)
	if err != nil {
		return "", err
	}
	if _, err := m.Run(); err != nil {
		return "", err
	}
	return m.Out.String(), nil
}

// translateRound translates every program cold with up to jobs pipeline
// workers, each with a fresh cache, and returns the CPU time the
// translations took; each translation is a timed operation. Each result
// must equal its serial reference byte for byte, and every cache probe must
// miss.
func translateRound(b *bench, ps []*program, refs map[string]*translation, jobs int) time.Duration {
	cfgs := make([]core.Config, len(ps))
	for i := range cfgs {
		cfgs[i] = coldConfig(jobs)
	}
	outs := make([]*obj.File, len(ps))
	stats := make([]*core.Stats, len(ps))
	errs := make([]error, len(ps))
	cpus := make([]time.Duration, len(ps))
	for i, p := range ps {
		c0 := cpuTime()
		outs[i], stats[i], _, errs[i] = core.Translate(p.x86, cfgs[i])
		cpus[i] = cpuTime() - c0
	}
	var cpu time.Duration
	for i, p := range ps {
		cpu += cpus[i]
		err := errs[i]
		if err == nil {
			err = checkCold(outs[i].Marshal(), stats[i], cfgs[i].Cache, refs[p.name])
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", p.name, err)
		}
		b.op("translation", err, false)
		b.timedOp(cpus[i], err)
	}
	return cpu
}

// checkCold holds one cold translation to its serial reference.
func checkCold(got []byte, st *core.Stats, c *cache.Cache, ref *translation) error {
	if !bytes.Equal(got, ref.bytes) {
		return fmt.Errorf("object differs from the Jobs=1 translation")
	}
	if st.CacheHits != 0 || st.CacheMisses != ref.stats.CacheMisses || c.Len() != st.CacheMisses {
		return fmt.Errorf("cold cache: %d hits, %d misses, %d entries; want 0 hits, %d misses and entries",
			st.CacheHits, st.CacheMisses, c.Len(), ref.stats.CacheMisses)
	}
	return nil
}

// translateTraced is translate-cold's instrumented run. Each round
// translates every program three ways, in rotating order: a traced replay,
// the same replay untraced, and core.Translate with Jobs=1. Both replays
// must reproduce core's object and statistics. The stage spans' self times
// give the per-layer figures; the untraced replay gives the tracing
// overhead, and core's own time the share no stage span covers. All three
// are compared in CPU time.
func translateTraced(b *bench, in translateInputs, refs map[string]*translation) error {
	t := newTracer()
	all := in.all()
	layers := map[string][]float64{}
	var other, coverage, overhead []float64

	replayAll := func(tr *tracer) time.Duration {
		caches := freshCaches(len(all))
		type res struct {
			obj *obj.File
			st  *core.Stats
			err error
		}
		outs := make([]res, len(all))
		c0 := cpuTime()
		for i, p := range all {
			outs[i].obj, outs[i].st, _, outs[i].err = replay(p.x86, caches[i], tr)
		}
		d := cpuTime() - c0
		for i, p := range all {
			err := outs[i].err
			if err == nil {
				err = sameTranslation(outs[i].obj, refs[p.name].obj, outs[i].st, refs[p.name].stats)
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", p.name, err)
			}
			b.op("replay", err, false)
		}
		return d
	}
	b.timedRounds(func(r int) {
		var traced, untraced, coreT time.Duration
		var self map[string]time.Duration
		steps := []func(){
			func() {
				mark := t.mark()
				traced = replayAll(t)
				self = t.selfTimes(mark)
			},
			func() { untraced = replayAll(nil) },
			func() { coreT = translateRound(b, all, refs, 1) },
		}
		for k := range steps {
			steps[(r+k)%len(steps)]()
		}
		sr := newStageRound()
		covered := sr.add(self)
		sr.appendTo(layers)
		other = append(other, ms(coreT-covered))
		coverage = append(coverage, float64(covered)/float64(coreT))
		overhead = append(overhead, 100*(float64(traced)/float64(untraced)-1))
	})
	for name, v := range layers {
		b.set(name, "ms", median(v))
	}
	b.set("core.other_ms", "ms", median(other))
	b.set("core.span_coverage", "ratio", median(coverage))
	b.set("trace.overhead_pct", "%", median(overhead))

	// Counts over the six kernels; every replay reproduces them exactly.
	var st core.Stats
	var pc passCounts
	var dmb, ordered, textBytes, entries int
	for _, p := range in.kern {
		c := cache.New(0)
		_, s, n, err := replay(p.x86, c, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		addStats(&st, s)
		entries += c.Len()
		pc.run += n.run
		pc.skipped += n.skipped
		d, o, size, err := armCode(refs[p.name].obj)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		dmb += d
		ordered += o
		textBytes += size
	}
	setStageCounts(b, &st, pc)
	b.set("backend.ldar_stlr", "count", float64(ordered))
	b.set("backend.dmb", "count", float64(dmb))
	b.set("backend.text_bytes", "bytes", float64(textBytes))
	b.set("cache.misses", "count", float64(st.CacheMisses))
	b.set("cache.entries", "count", float64(entries))
	b.set("cache.hits", "count", float64(st.CacheHits))
	b.set("cache.hit_ratio", "ratio", float64(st.CacheHits)/float64(st.CacheHits+st.CacheMisses))
	return t.dump(b.outDir, fmt.Sprintf("spans-translate-cold-seed%d.json", b.seed))
}

// stageSpans names the spans that stand for pipeline stages, and the
// per-layer metric each one's self time is reported as. The opt entry is
// the pass driver's own time between passes.
var stageSpans = map[string]string{
	"lifter":            "lifter.ms",
	"refine":            "refine.ms",
	"cache":             "cache.ms",
	"backend":           "backend.ms",
	"fences.globals":    "fences.globals_ms",
	"fences.escape":     "fences.escape_ms",
	"fences.place":      "fences.place_ms",
	"fences.merge":      "fences.merge_ms",
	"fences.strengthen": "fences.strengthen_ms",
	"opt":               "opt.driver_ms",
}

// stageMetric maps a span name to its per-layer metric ("" if none).
func stageMetric(span string) string {
	if m, ok := stageSpans[span]; ok {
		return m
	}
	if strings.HasPrefix(span, "opt.") {
		return span + "_ms"
	}
	return ""
}

// stageRound accumulates one round's self time per stage metric, in ms.
// Declared stages that did not run read 0.
type stageRound map[string]float64

func newStageRound() stageRound {
	r := stageRound{}
	for _, m := range stageSpans {
		r[m] = 0
	}
	for _, p := range distinctPasses() {
		r["opt."+p+"_ms"] = 0
	}
	return r
}

// add counts self times into the round and returns the time the stage
// spans among them cover.
func (r stageRound) add(self map[string]time.Duration) time.Duration {
	var covered time.Duration
	for span, d := range self {
		if m := stageMetric(span); m != "" {
			r[m] += ms(d)
			covered += d
		}
	}
	return covered
}

// appendTo appends the round's values to the per-metric samples.
func (r stageRound) appendTo(layers map[string][]float64) {
	for m, v := range r {
		layers[m] = append(layers[m], v)
	}
}

// distinctPasses lists the passes of the standard pipeline once each.
func distinctPasses() []string {
	var ps []string
	seen := map[string]bool{}
	for _, p := range opt.StandardPipeline {
		if !seen[p] {
			seen[p] = true
			ps = append(ps, p)
		}
	}
	return ps
}

// freshCaches returns n empty translation caches.
func freshCaches(n int) []*cache.Cache {
	cs := make([]*cache.Cache, n)
	for i := range cs {
		cs[i] = cache.New(0)
	}
	return cs
}

func addStats(dst, s *core.Stats) {
	dst.LiftedInstrs += s.LiftedInstrs
	dst.FinalInstrs += s.FinalInstrs
	dst.PtrCastsAfter += s.PtrCastsAfter
	dst.FencesPlaced += s.FencesPlaced
	dst.FencesMerged += s.FencesMerged
	dst.FencesFinal += s.FencesFinal
	dst.AcquireLoads += s.AcquireLoads
	dst.ReleaseStores += s.ReleaseStores
	dst.RefineRewrites += s.RefineRewrites
	dst.CacheHits += s.CacheHits
	dst.CacheMisses += s.CacheMisses
}

// setStageCounts reports the work counts of the translation stages.
func setStageCounts(b *bench, st *core.Stats, pc passCounts) {
	b.set("lifter.ir_instrs", "count", float64(st.LiftedInstrs))
	b.set("refine.rewrites", "count", float64(st.RefineRewrites))
	b.set("refine.ptr_casts_after", "count", float64(st.PtrCastsAfter))
	b.set("fences.placed", "count", float64(st.FencesPlaced))
	b.set("fences.merged", "count", float64(st.FencesMerged))
	b.set("fences.final", "count", float64(st.FencesFinal))
	b.set("fences.acquire_loads", "count", float64(st.AcquireLoads))
	b.set("fences.release_stores", "count", float64(st.ReleaseStores))
	b.set("opt.final_instrs", "count", float64(st.FinalInstrs))
	b.set("opt.passes_run", "count", float64(pc.run))
	b.set("opt.passes_skipped", "count", float64(pc.skipped))
}
