package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"lasagne/internal/core"
	"lasagne/internal/core/cache"
	"lasagne/internal/obj"
	"lasagne/internal/serve"
	"lasagne/internal/serve/client"
)

// daemon is serve-warm's set-up: lasagned in this process, on loopback,
// with its shared cache warmed by one translation of every kernel, and a
// client holding at most nproc connections.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	tr     *http.Transport
	cl     *client.Client
	cache  *cache.Cache
	kern   []*program
	raw    [][]byte // the kernels' x86-64 objects
	b64    []string // ... base64 encoded
}

func startDaemon(workers int) (*daemon, error) {
	kern, err := kernelPrograms(false)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{cache: cache.New(0), kern: kern, served: make(chan error, 1)}
	d.srv = serve.New(serve.Options{Workers: workers, Config: core.Default(), Cache: d.cache})
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.tr = &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers}
	d.cl = client.New(client.Options{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: d.tr}})
	for _, p := range kern {
		d.raw = append(d.raw, p.x86.Marshal())
		d.b64 = append(d.b64, base64.StdEncoding.EncodeToString(d.raw[len(d.raw)-1]))
	}
	ctx := context.Background()
	for k, p := range kern {
		if _, err := d.cl.Translate(ctx, d.raw[k], false, nil); err != nil {
			d.close()
			return nil, fmt.Errorf("warming %s: %w", p.name, err)
		}
	}
	if _, err := d.cl.TranslateStream(ctx, d.batch(), nil); err != nil {
		d.close()
		return nil, fmt.Errorf("warming the stream path: %w", err)
	}
	return d, nil
}

// batch is the full-suite stream request: every kernel, once.
func (d *daemon) batch() []serve.ModuleRequest {
	mods := make([]serve.ModuleRequest, len(d.kern))
	for i, p := range d.kern {
		mods[i] = serve.ModuleRequest{Name: p.name, Module: d.b64[i]}
	}
	return mods
}

// close stops the HTTP server and drains the daemon, waiting for both.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a failed graceful stop leaves Serve to return below
	<-d.served
	_ = d.srv.Drain(ctx) // stops the worker pool even when ctx expires
	d.tr.CloseIdleConnections()
}

// health reads /healthz through the handler, without the network.
func (d *daemon) health() (*serve.HealthBody, error) {
	rec := httptest.NewRecorder()
	d.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var h serve.HealthBody
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return &h, nil
}

// offline translates every kernel with core.Translate: the bytes every
// daemon answer must equal.
func offline(kern []*program) (map[string][]byte, error) {
	want := map[string][]byte{}
	for _, p := range kern {
		o, _, _, err := core.Translate(p.x86, core.Default())
		if err != nil {
			return nil, fmt.Errorf("%s: offline translation: %w", p.name, err)
		}
		want[p.name] = o.Marshal()
	}
	return want, nil
}

// unaryErr checks one /translate answer against the offline object.
func unaryErr(resp *serve.Response, want []byte) error {
	got, err := base64.StdEncoding.DecodeString(resp.Object)
	if err != nil {
		return fmt.Errorf("object is not base64: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("unary object differs from offline core.Translate")
	}
	return nil
}

// streamErr checks one reassembled batch: every module present, a 200, and
// the offline object byte for byte.
func streamErr(res map[string]*client.ModuleResult, want map[string][]byte) error {
	if len(res) != len(want) {
		return fmt.Errorf("stream returned %d modules, want %d", len(res), len(want))
	}
	for name, w := range want {
		m := res[name]
		switch {
		case m == nil:
			return fmt.Errorf("stream lost module %s", name)
		case m.Status != http.StatusOK:
			return fmt.Errorf("stream module %s: status %d: %s", name, m.Status, m.Err)
		case !bytes.Equal(m.Object, w):
			return fmt.Errorf("streamed module %s differs from offline core.Translate", name)
		}
	}
	return nil
}

// send issues request k of a round: the unary request for kernel k, or the
// full-suite stream batch when k == len(d.kern). It returns the check of the
// answer, to be run once the request is no longer timed.
func (d *daemon) send(ctx context.Context, k int, want map[string][]byte) func() error {
	if k == len(d.kern) {
		res, err := d.cl.TranslateStream(ctx, d.batch(), nil)
		return func() error {
			if err != nil {
				return err
			}
			return streamErr(res, want)
		}
	}
	name := d.kern[k].name
	resp, err := d.cl.Translate(ctx, d.raw[k], false, nil)
	return func() error {
		if err == nil {
			err = unaryErr(resp, want[name])
		}
		return prefixErr(name, err)
	}
}

// opKind names request k of a round for the operation counts.
func (d *daemon) opKind(k int) string {
	if k == len(d.kern) {
		return "stream-batch"
	}
	return "request"
}

func serveWarm(b *bench) error {
	d, err := setup(b, func() (*daemon, error) { return startDaemon(b.workers) }, (*daemon).close)
	if err != nil {
		return err
	}
	defer d.close()
	want, err := offline(d.kern)
	if err != nil {
		return err
	}
	if b.trace {
		return serveTraced(b, d, want)
	}

	h0, err := d.health()
	if err != nil {
		return err
	}
	_, miss0 := d.cache.Stats()
	att0 := d.cl.Attempts()
	ctx := context.Background()
	// A round is one unary request per kernel plus one full-suite stream
	// batch, in an order drawn from the seed.
	round := len(d.kern) + 1

	// The first two thirds of the run: one client, one request at a time,
	// so the process CPU time spent during a request is that request's own
	// cost. Its percentiles stand in for latency, which on a host that
	// steals CPU from its virtual machines moves with the steal (README,
	// "Steadiness"). This phase gets the larger share because its 90th
	// percentile falls among the stream batches, one request in seven,
	// whose costs spread widely (each pays 8-10 garbage collections). With
	// one request in flight there is no parallel work, and one scheduler
	// thread keeps idle ones from spinning (and adding CPU time) while the
	// client waits for its answer. Each request starts after a garbage
	// collection, so it does not pay for the previous request's garbage.
	prev := runtime.GOMAXPROCS(1)
	var calls int64
	rng := rand.New(rand.NewSource(b.seed))
	deadline := time.Now().Add(b.seconds * 2 / 3)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		for _, k := range rng.Perm(round) {
			runtime.GC()
			c0 := cpuTime()
			check := d.send(ctx, k, want)
			cost := cpuTime() - c0
			calls++
			err := check()
			b.op(d.opKind(k), err, false)
			b.timedOp(cost, err)
		}
	}
	runtime.GOMAXPROCS(prev)

	// The last third: a closed loop of nproc clients, each sending its next
	// request when the previous one is answered. round_ms is the process
	// CPU time the loop took per round it completed, and peak_rss_mb the
	// median of its one-second peaks: the daemon's footprint under load.
	checks := make([][]func() error, b.workers)
	kinds := make([][]int, b.workers)
	rss := startRSS(time.Second)
	deadline = time.Now().Add(b.seconds - b.seconds*2/3)
	c0 := cpuTime()
	var wg sync.WaitGroup
	for c := range checks {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*1009 + int64(c)))
			for r := 0; r == 0 || time.Now().Before(deadline); r++ {
				for _, k := range rng.Perm(round) {
					checks[c] = append(checks[c], d.send(ctx, k, want))
					kinds[c] = append(kinds[c], k)
				}
			}
		}(c)
	}
	wg.Wait()
	loopCPU := cpuTime() - c0
	var loopCalls int
	for c := range checks {
		for i, check := range checks[c] {
			b.op(d.opKind(kinds[c][i]), check(), false)
		}
		loopCalls += len(checks[c])
	}
	b.setPeakRSS(rss.close())

	h1, err := d.health()
	if err != nil {
		return err
	}
	_, miss1 := d.cache.Stats()
	calls += int64(loopCalls)
	b.check("admission", warmErr(h1.Shed-h0.Shed, miss1-miss0, d.cl.Attempts()-att0, calls))

	rounds := loopCalls / round
	b.setRound([]float64{ms(loopCPU) / float64(rounds)})
	fmt.Printf("serve: %d requests timed one at a time; %d rounds (%d requests) in the closed loop\n",
		len(b.opMS), rounds, loopCalls)
	return nil
}

// warmErr checks what the daemon did while it was timed: nothing shed,
// nothing recomputed (the warm cache answered every function), and no call
// retried.
func warmErr(shed, misses, attempts, calls int64) error {
	switch {
	case shed != 0:
		return fmt.Errorf("%d requests shed", shed)
	case misses != 0:
		return fmt.Errorf("%d cache misses on a warm cache", misses)
	case attempts != calls:
		return fmt.Errorf("%d HTTP attempts for %d calls", attempts, calls)
	}
	return nil
}

// serveTraced is serve-warm's instrumented run. Each round sends every
// kernel, one at a time, through the client over loopback, through the
// daemon's handler in memory, through core.TranslateContext against the
// daemon's cache, and through a traced replay of the pipeline against that
// cache; then one stream batch. Client time less handler time is the
// transport's share; the replay splits the handler's compute by stage.
func serveTraced(b *bench, d *daemon, want map[string][]byte) error {
	t := newTracer()
	ctx := context.Background()
	h0, err := d.health()
	if err != nil {
		return err
	}
	hits0, miss0 := d.cache.Stats()
	att0 := d.cl.Attempts()
	var calls int64

	layers := map[string][]float64{}
	var clientMS, handlerMS, computeMS, other, coverage, frames []float64
	b.timedRounds(func(int) {
		var computeRound, covered time.Duration
		sr := newStageRound()
		for i, p := range d.kern {
			t.begin("client")
			resp, err := d.cl.Translate(ctx, d.raw[i], false, nil)
			t.end()
			clientMS = append(clientMS, ms(t.last().wall()))
			calls++
			if err == nil {
				err = unaryErr(resp, want[p.name])
			}
			b.op("request", prefixErr(p.name, err), false)

			body, _ := json.Marshal(serve.Request{Module: d.b64[i]}) // plain struct: cannot fail
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/translate", bytes.NewReader(body))
			t.do("handler", func() { d.srv.Handler().ServeHTTP(rec, req) })
			handlerMS = append(handlerMS, ms(t.last().wall()))
			b.op("handler", prefixErr(p.name, handlerErr(rec, want[p.name])), false)

			cfg := core.Default()
			cfg.Cache, cfg.Jobs = d.cache, 1
			var o *obj.File
			var st *core.Stats
			t.do("compute", func() { o, st, _, err = core.TranslateContext(ctx, p.x86, cfg) })
			computeMS = append(computeMS, ms(t.last().wall()))
			computeRound += t.last().cpu()
			if err == nil && !bytes.Equal(o.Marshal(), want[p.name]) {
				err = fmt.Errorf("compute object differs from offline core.Translate")
			}
			b.op("translation", prefixErr(p.name, err), false)
			if err != nil {
				continue
			}

			mark := t.mark()
			ro, rst, _, err := replay(p.x86, d.cache, t)
			if err == nil {
				err = sameTranslation(ro, o, rst, st)
			}
			b.op("replay", prefixErr(p.name, err), false)
			self := t.selfTimes(mark)
			covered += sr.add(self)
		}
		sr.appendTo(layers)
		other = append(other, ms(computeRound-covered))
		coverage = append(coverage, float64(covered)/float64(computeRound))

		var res map[string]*client.ModuleResult
		var err error
		t.do("stream", func() { res, err = d.cl.TranslateStream(ctx, d.batch(), nil) })
		calls++
		if err == nil {
			err = streamErr(res, want)
		}
		b.op("stream-batch", err, false)
		n := 0
		for _, m := range res {
			n += len(m.Funcs)
		}
		frames = append(frames, float64(n))
	})

	h1, err := d.health()
	if err != nil {
		return err
	}
	hits1, miss1 := d.cache.Stats()
	b.check("admission", warmErr(h1.Shed-h0.Shed, miss1-miss0, d.cl.Attempts()-att0, calls))
	for name, v := range layers {
		b.set(name, "ms", median(v))
	}
	b.set("core.other_ms", "ms", median(other))
	b.set("core.span_coverage", "ratio", median(coverage))
	b.set("serve.handler_ms_p50", "ms", median(handlerMS))
	b.set("serve.compute_ms_p50", "ms", median(computeMS))
	b.set("serve.transport_ms_p50", "ms", median(clientMS)-median(handlerMS))
	b.set("serve.shed", "count", float64(h1.Shed-h0.Shed))
	b.set("stream.func_frames", "count", median(frames))
	b.set("client.attempts", "count", float64(d.cl.Attempts()-att0))
	hits, misses := hits1-hits0, miss1-miss0
	b.set("cache.hits", "count", float64(hits))
	b.set("cache.hit_ratio", "ratio", float64(hits)/float64(hits+misses))
	return t.dump(b.outDir, fmt.Sprintf("spans-serve-warm-seed%d.json", b.seed))
}

// handlerErr checks a /translate answer recorded in memory.
func handlerErr(rec *httptest.ResponseRecorder, want []byte) error {
	if rec.Code != http.StatusOK {
		return fmt.Errorf("handler status %d", rec.Code)
	}
	var resp serve.Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return fmt.Errorf("handler response: %w", err)
	}
	return unaryErr(&resp, want)
}

func prefixErr(name string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", name, err)
}
