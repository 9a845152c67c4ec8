package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"time"

	"lasagne/internal/core"
	"lasagne/internal/obj"
	"lasagne/internal/sim"
)

// simKinds names the three binaries simulate runs for every kernel.
var simKinds = [3]string{"x86", "arm_native", "arm_translated"}

const (
	simX86 = iota
	simNative
	simTranslated
)

// engineCheckKernels are the kernels cheap enough to also run on the
// reference engine, which must reproduce the threaded engine exactly.
var engineCheckKernels = []string{"spsc_ring", "linear_regression"}

// simKernel is one kernel's three binaries.
type simKernel struct {
	name string
	bins [3]*obj.File
}

// buildSimKernels compiles every kernel natively and for x86-64, and
// translates the x86-64 binary with full Lasagne.
func buildSimKernels(workers int) ([]simKernel, error) {
	ps, err := kernelPrograms(true)
	if err != nil {
		return nil, err
	}
	var ks []simKernel
	for _, p := range ps {
		cfg := core.Default()
		cfg.Jobs = workers
		tr, _, _, err := core.Translate(p.x86, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: translate: %w", p.name, err)
		}
		ks = append(ks, simKernel{name: p.name, bins: [3]*obj.File{p.x86, p.native, tr}})
	}
	return ks, nil
}

// simRun is what one simulation observed, and what it cost the host.
type simRun struct {
	out            string
	cycles, instrs int64
	load, run      time.Duration // wall time
	cpu            time.Duration // CPU time of load and run
}

// simulateBin loads and runs one binary on the given engine; with a tracer
// the load and the run are spans.
func simulateBin(o *obj.File, kind string, engine sim.EngineKind, t *tracer) (simRun, error) {
	var r simRun
	t.request()
	t.begin("simulation")
	defer t.end()
	t0, c0 := time.Now(), cpuTime()
	t.begin("sim.load")
	m, err := sim.NewMachine(o)
	t.end()
	if err != nil {
		return r, err
	}
	m.Engine = engine
	t1 := time.Now()
	t.begin("sim.run." + kind)
	r.cycles, err = m.Run()
	t.end()
	r.run, r.cpu = time.Since(t1), cpuTime()-c0
	r.load = t1.Sub(t0)
	r.out, r.instrs = m.Out.String(), m.InstrCount()
	return r, err
}

// sameSimulation reports how two simulations of one binary disagree on
// anything the simulated program could observe or the cost model counts.
func sameSimulation(a, b simRun) error {
	switch {
	case a.out != b.out:
		return fmt.Errorf("outputs %q and %q", abbreviate(a.out), abbreviate(b.out))
	case a.cycles != b.cycles:
		return fmt.Errorf("%d and %d cycles", a.cycles, b.cycles)
	case a.instrs != b.instrs:
		return fmt.Errorf("%d and %d instructions", a.instrs, b.instrs)
	}
	return nil
}

func simulate(b *bench) error {
	ks, err := setup(b, func() ([]simKernel, error) { return buildSimKernels(b.workers) }, nil)
	if err != nil {
		return err
	}
	want, err := references(kernelSources())
	if err != nil {
		return err
	}
	// The threaded engine is held to the reference engine on a cheap subset.
	for _, k := range ks {
		if !slices.Contains(engineCheckKernels, k.name) {
			continue
		}
		for j, bin := range k.bins {
			th, err1 := simulateBin(bin, simKinds[j], sim.Threaded, nil)
			ref, err2 := simulateBin(bin, simKinds[j], sim.Reference, nil)
			err := errors.Join(err1, err2)
			if err == nil {
				err = sameSimulation(th, ref)
			}
			if err != nil {
				b.problem("%s %s: threaded and reference engines disagree: %v", k.name, simKinds[j], err)
			}
		}
	}

	var t *tracer
	if b.trace {
		t = newTracer()
	}
	order := rand.New(rand.NewSource(b.seed)).Perm(len(ks))
	first := make([][3]*simRun, len(ks))
	var roundMS, spanShare []float64
	layers := map[string][]float64{}
	b.timedRounds(func(int) {
		round := map[string]float64{"sim.load_ms": 0}
		for _, kind := range simKinds {
			round["sim.run_ms."+kind] = 0
		}
		var host time.Duration
		mark, c0 := t.mark(), cpuTime()
		for _, ki := range order {
			k := ks[ki]
			for j, bin := range k.bins {
				// Each simulation starts from a collected heap whose free
				// memory went back to the OS: otherwise a machine may reuse
				// an earlier machine's memory, which must be cleared (all
				// 64 MiB resident), or get fresh pages (only the touched
				// ones resident), and peak_rss_mb would flip between the two.
				debug.FreeOSMemory()
				r, err := simulateBin(bin, simKinds[j], sim.Threaded, t)
				if err == nil {
					err = outputErr(r.out, want[k.name].out)
				}
				if prev := first[ki][j]; err == nil && prev != nil {
					if e := sameSimulation(*prev, r); e != nil {
						err = fmt.Errorf("differs from its first run: %v", e)
					}
				}
				b.op("simulation", prefixErr(k.name+" "+simKinds[j], err), knownFault(want[k.name], err))
				b.timedOp(r.cpu, err)
				host += r.cpu
				round["sim.load_ms"] += ms(r.load)
				round["sim.run_ms."+simKinds[j]] += ms(r.run)
				if err != nil {
					continue
				}
				if first[ki][j] == nil {
					first[ki][j] = &r
				}
			}
		}
		roundMS = append(roundMS, ms(host))
		if t != nil {
			var spans time.Duration
			for name, d := range t.selfTimes(mark) {
				if name != "simulation" {
					spans += d
				}
			}
			spanShare = append(spanShare, float64(spans)/float64(cpuTime()-c0))
		}
		for m, v := range round {
			layers[m] = append(layers[m], v)
		}
	})
	if !b.trace {
		b.setRound(roundMS)
		return nil
	}

	// Simulated cycles are deterministic, so the first clean run of each
	// binary stands for all of them.
	var logRatio float64
	var n int
	var instrs, cycNative, cycTranslated int64
	for ki := range ks {
		for _, r := range first[ki] {
			if r != nil {
				instrs += r.instrs
			}
		}
		nat, tr := first[ki][simNative], first[ki][simTranslated]
		if nat == nil || tr == nil {
			continue
		}
		logRatio += math.Log(float64(tr.cycles) / float64(nat.cycles))
		n++
		cycNative += nat.cycles
		cycTranslated += tr.cycles
	}
	for m, v := range layers {
		b.set(m, "ms", median(v))
	}
	b.set("sim.instrs", "count", float64(instrs))
	b.set("sim.cycles.native", "count", float64(cycNative))
	b.set("sim.cycles.translated", "count", float64(cycTranslated))
	b.set("sim.cycles_vs_native", "ratio", math.Exp(logRatio/float64(n)))
	b.set("sim.span_share", "ratio", median(spanShare))
	return t.dump(b.outDir, fmt.Sprintf("spans-simulate-seed%d.json", b.seed))
}
