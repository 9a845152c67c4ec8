package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"lasagne/internal/arm64"
	"lasagne/internal/backend"
	"lasagne/internal/core"
	"lasagne/internal/core/cache"
	"lasagne/internal/fences"
	"lasagne/internal/ir"
	"lasagne/internal/lifter"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/refine"
)

// The traced runs replay core.Translate(core.Default()) serially through
// the public stage functions core itself calls, with a span around each
// call. A replay must produce core's Arm object byte for byte and core's
// statistics exactly (checked by sameTranslation), so the spans divide the
// very work that the untraced translate-cold round_ms figure times.

// passCounts tallies the opt passes a replay executed and the ones the
// pipeline's fixpoint rule skipped.
type passCounts struct{ run, skipped int }

// replayFingerprint is the cache fingerprint under which core.Default()
// keys a function's fence/opt suffix. Were it to drift from core's, the
// replay would miss the daemon's warm cache, and serve-warm's hit-ratio
// check would fail.
func replayFingerprint(locals []string) string {
	return "merge=true;opt=true;verify=false;place=true;weak=true;locals=" + strings.Join(locals, ",")
}

// defined lists the functions with bodies, in module order.
func defined(m *ir.Module) []*ir.Func {
	var fs []*ir.Func
	for _, f := range m.Funcs {
		if !f.External && len(f.Blocks) > 0 {
			fs = append(fs, f)
		}
	}
	return fs
}

// replay translates bin as core.Translate(bin, core.Default()) does, with
// c as the translation cache. t may be nil.
func replay(bin *obj.File, c *cache.Cache, t *tracer) (*obj.File, *core.Stats, passCounts, error) {
	var pc passCounts
	st := &core.Stats{}
	t.request()
	t.begin("translate")
	defer t.end()

	t.begin("lifter")
	m, err := lift(bin)
	t.end()
	if err != nil {
		return nil, nil, pc, err
	}
	st.LiftedInstrs = m.NumInstrs()
	st.PtrCastsBefore = refine.CountPtrCasts(m)

	t.begin("refine")
	st.RefineRewrites, st.PromotedParams = refineModule(m)
	t.end()
	st.PtrCastsAfter = refine.CountPtrCasts(m)

	t.begin("fences.globals")
	locals := fences.ThreadLocalGlobals(m)
	t.end()
	popts := fences.Options{SkipStackAccesses: true, UseEscape: true, LocalGlobals: fences.LocalGlobalSet(locals)}
	fp := replayFingerprint(locals)
	check := &opt.PassCheck{
		Before: func(_ *ir.Func, pass string) {
			pc.run++
			t.begin("opt." + pass)
		},
		After: func(*ir.Func, string) error {
			t.end()
			return nil
		},
	}
	for _, f := range defined(m) {
		t.begin("cache")
		key := cache.KeyFor(core.PipelineVersion, fp, f)
		e, hit := c.Get(key)
		if hit {
			var blocks []*ir.Block
			if blocks, err = cache.DecodeBody(f, e.Body); err == nil {
				f.RestoreBody(blocks)
			}
		}
		t.end()
		if err != nil {
			return nil, nil, pc, fmt.Errorf("%s: cache entry: %w", f.Name, err)
		}
		if hit {
			st.CacheHits++
			st.FencesPlaced += e.FencesPlaced
			st.FencesMerged += e.FencesMerged
			continue
		}
		st.CacheMisses++

		var local func(ir.Value) bool
		var placed, merged int
		t.do("fences.escape", func() { local = popts.Classifier(f) })
		t.do("fences.place", func() { placed = fences.PlaceFuncWith(f, local) })
		t.do("fences.merge", func() { merged = fences.MergeFuncWith(f, local) })
		t.do("fences.strengthen", func() { fences.StrengthenFuncWith(f, local) })
		st.FencesPlaced += placed
		st.FencesMerged += merged

		before := pc.run
		t.begin("opt")
		err = opt.RunFuncPipelineWithCheck(context.Background(), f, opt.StandardPipeline, check)
		t.end()
		if err != nil {
			return nil, nil, pc, err
		}
		pc.skipped += len(opt.StandardPipeline) - (pc.run - before)

		t.do("cache", func() {
			c.Put(key, &cache.Entry{Body: cache.EncodeBody(f), FencesPlaced: placed, FencesMerged: merged})
		})
	}
	st.FencesFinal = fences.Count(m)
	st.AcquireLoads, st.ReleaseStores = fences.CountOrdered(m)
	st.FinalInstrs = m.NumInstrs()

	t.begin("backend")
	out, err := backend.Compile(m, "arm64")
	t.end()
	return out, st, pc, err
}

// lift is core's lift stage without its fault tolerance: a function that
// cannot be lifted is an error here.
func lift(bin *obj.File) (*ir.Module, error) {
	var bad error
	ml, err := lifter.BeginTolerant(bin, func(sym obj.Symbol, e error) {
		if bad == nil {
			bad = fmt.Errorf("disassemble %s: %w", sym.Name, e)
		}
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, s := range ml.Streams() {
		if err := ml.DeclareFunc(s); err != nil {
			return nil, fmt.Errorf("declare %s: %w", s.Sym.Name, err)
		}
		names = append(names, s.Sym.Name)
	}
	for _, n := range names {
		if err := ml.LiftFunc(n); err != nil {
			return nil, fmt.Errorf("lift %s: %w", n, err)
		}
		if f := ml.Module().Func(n); f != nil {
			if err := ir.VerifyFunc(f); err != nil {
				return nil, err
			}
		}
	}
	return ml.Module(), nil
}

// refineModule is core's refinement fixpoint: peephole and cleanup on every
// body, then parameter promotion, until a round changes nothing.
func refineModule(m *ir.Module) (rewrites, promoted int) {
	for {
		n := 0
		for _, f := range defined(m) {
			n += refine.PeepholeFunc(f)
			refine.CleanupFunc(f)
		}
		p := refine.PromoteParamsFiltered(m, func(*ir.Func) bool { return true })
		promoted += p
		if n += p; n == 0 {
			break
		}
		rewrites += n
	}
	for _, f := range defined(m) {
		refine.CleanupFunc(f)
	}
	return rewrites, promoted
}

// sameTranslation reports whether a replay reproduced core.Translate: the
// same Arm object bytes and the same statistics.
func sameTranslation(got, want *obj.File, gotSt, wantSt *core.Stats) error {
	if !bytes.Equal(got.Marshal(), want.Marshal()) {
		return fmt.Errorf("replayed Arm object differs from core.Translate's")
	}
	if *gotSt != *wantSt {
		return fmt.Errorf("replay statistics %+v, core.Translate's %+v", *gotSt, *wantSt)
	}
	return nil
}

// armCode decodes an Arm64 object's functions and counts its DMB barriers
// and its acquire/release accesses; textBytes is the .text size.
func armCode(o *obj.File) (dmb, ordered, textBytes int, err error) {
	text := o.Section(".text")
	if text == nil {
		return 0, 0, 0, fmt.Errorf("no .text section")
	}
	for _, sym := range o.FuncSymbols() {
		lo := sym.Addr - text.Addr
		insts, err := arm64.DecodeAll(text.Data[lo:lo+sym.Size], sym.Addr)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s: %w", sym.Name, err)
		}
		for _, in := range insts {
			switch in.Op {
			case arm64.DMB:
				dmb++
			case arm64.LDAR, arm64.STLR:
				ordered++
			}
		}
	}
	return dmb, ordered, len(text.Data), nil
}
