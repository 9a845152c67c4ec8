package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lasagne/internal/campaign"
	"lasagne/internal/memmodel"
)

// litmusBound is the per-thread operation bound of the mapping campaign.
const litmusBound = 3

// campaignErr checks one campaign run. The paper proves the x86→IR→Arm
// mappings sound, so no verdict may be unsound or left unresolved. A cold
// run (cold == nil) checks every orbit; a warm run against the cold run's
// store must find every verdict there and check nothing.
func campaignErr(r, cold *campaign.Result) error {
	switch {
	case len(r.Unsound) > 0:
		return fmt.Errorf("%d unsound verdicts, first: %s", len(r.Unsound), r.Unsound[0].Msg)
	case r.Unresolved != 0 || r.Stopped:
		return fmt.Errorf("%d verdicts unresolved (stopped %t)", r.Unresolved, r.Stopped)
	case cold == nil && (r.Hits != 0 || r.Checked != r.Orbits):
		return fmt.Errorf("cold run: %d checked, %d store hits, %d orbits", r.Checked, r.Hits, r.Orbits)
	case cold != nil && (r.Orbits != cold.Orbits || r.Hits != r.Orbits || r.Checked != 0):
		return fmt.Errorf("warm run: %d orbits (cold %d), %d store hits, %d checked", r.Orbits, cold.Orbits, r.Hits, r.Checked)
	}
	return nil
}

// tableErr lists the cells where a Fig. 11a table differs from the paper's.
func tableErr(got, want [memmodel.NumCats][memmodel.NumCats]memmodel.Verdict) error {
	var bad []string
	for a := range got {
		for b := range got[a] {
			if got[a][b] != want[a][b] {
				bad = append(bad, fmt.Sprintf("(%s,%s)=%v want %v", memmodel.Cat(a), memmodel.Cat(b), got[a][b], want[a][b]))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("Fig. 11a cells differ from the paper: %s", strings.Join(bad, ", "))
	}
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

func litmus(b *bench) error {
	ctx := context.Background()
	root, err := os.MkdirTemp(b.outDir, "litmus-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	// The checkers run on one worker: with more, the CPU time of a run also
	// counts the Go scheduler spinning between workers, which made the
	// figures of identical runs spread by 10-17%. Set-up warms both checkers:
	// the campaign on the bound-2 family, in memory, and one computation of
	// the Fig. 11a table.
	paper := memmodel.PaperReorderTable()
	if _, err := setup(b, func() (*campaign.Result, error) {
		r, err := campaign.Run(ctx, campaign.Options{Bound: litmusBound - 1, Workers: 1})
		if err == nil {
			b.check("bound-2 warm-up campaign", campaignErr(r, nil))
			b.check("warm-up Fig. 11a table", tableErr(memmodel.ReorderTableSerial(), paper))
		}
		return r, err
	}, nil); err != nil {
		return err
	}

	var t *tracer
	if b.trace {
		t = newTracer()
	}
	var roundMS, usPerCheck []float64
	var last, lastWarm *campaign.Result
	var storeBytes int64
	b.rssWindow = time.Second
	b.timedRounds(func(i int) {
		dir := filepath.Join(root, fmt.Sprintf("store%d", i))
		opts := campaign.Options{Bound: litmusBound, Workers: 1, StateDir: dir}

		c0 := cpuTime()
		t.begin("campaign.cold")
		cold, err := campaign.Run(ctx, opts)
		t.end()
		cpu := cpuTime() - c0
		if err == nil {
			err = campaignErr(cold, nil)
		}
		b.op("campaign", prefixErr("cold", err), false)
		b.timedOp(cpu, err)
		if err != nil {
			return
		}
		round := cpu
		usPerCheck = append(usPerCheck, float64(cpu.Microseconds())/float64(cold.Checked))
		if storeBytes, err = dirBytes(dir); err != nil {
			b.problem("store size: %v", err)
		}

		// The warm re-run is short, so each round makes three.
		var warm *campaign.Result
		for k := 0; k < 3; k++ {
			runtime.GC() // do not pay for the previous run's garbage
			c0 = cpuTime()
			t.begin("campaign.warm")
			warm, err = campaign.Run(ctx, opts)
			t.end()
			cpu = cpuTime() - c0
			if err == nil {
				err = campaignErr(warm, cold)
			}
			b.op("campaign", prefixErr("warm", err), false)
			b.timedOp(cpu, err)
			round += cpu
		}

		runtime.GC()
		c0 = cpuTime()
		t.begin("memmodel.fig11a")
		table := memmodel.ReorderTableSerial()
		t.end()
		cpu = cpuTime() - c0
		err = tableErr(table, paper)
		b.op("fig11a", err, false)
		b.timedOp(cpu, err)
		roundMS = append(roundMS, ms(round+cpu))

		last, lastWarm = cold, warm
		if err := os.RemoveAll(dir); err != nil {
			b.problem("removing %s: %v", dir, err)
		}
	})
	if last == nil {
		return nil // every cold run failed; the failures are recorded
	}
	if !b.trace {
		b.setRound(roundMS)
		return nil
	}
	b.set("campaign.generated", "count", float64(last.Generated))
	b.set("campaign.orbits", "count", float64(last.Orbits))
	b.set("campaign.prune_factor", "ratio", last.PruneFactor())
	b.set("campaign.checked", "count", float64(last.Checked))
	b.set("campaign.hits", "count", float64(lastWarm.Hits))
	b.set("campaign.us_per_check", "us", median(usPerCheck))
	b.set("campaign.store_bytes", "bytes", float64(storeBytes))
	b.set("memmodel.fig11a_cells", "count", float64(memmodel.NumCats*memmodel.NumCats))
	return t.dump(b.outDir, fmt.Sprintf("spans-litmus-seed%d.json", b.seed))
}
