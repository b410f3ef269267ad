package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"time"

	"lightpath/internal/ctrl"
	"lightpath/internal/rng"
	"lightpath/internal/snapshot"
	"lightpath/internal/unit"
)

// The wire-churn request stream. These mirror lightpath-controller's
// defaults: a 1 µs tick per request and a checkpoint every 4096
// requests.
const (
	wireTick        = unit.Microsecond
	wireCkptEvery   = 4096
	wireWidth       = 4    // lanes per establish
	wireHeld        = 4    // circuits held before the oldest is released
	wireHealthP     = 0.01 // share of calls that are health probes
	wireRerouteP    = 0.05 // share of calls that reroute a held circuit
	wireWarmupCalls = 20000
)

// churnGen generates the wire-churn request stream from a seed. It is
// a closed loop: observe feeds each response back, because releases
// and reroutes name circuits earlier responses granted. Given the same
// seed and the same responses it yields the same requests.
type churnGen struct {
	r        *rng.Rand
	chips    int
	held     []int // granted circuit ids, oldest first
	draining bool
}

func newChurnGen(seed uint64, chips int) *churnGen {
	return &churnGen{r: rng.New(seed).Split("perfbench/wire-churn"), chips: chips}
}

// next returns the next request. While draining it releases every
// held circuit, oldest first, then asks for health.
func (g *churnGen) next() ctrl.Request {
	if g.draining || len(g.held) >= wireHeld {
		if len(g.held) == 0 {
			return ctrl.Request{Op: ctrl.OpHealth}
		}
		c := g.held[0]
		g.held = append(g.held[:0], g.held[1:]...)
		return ctrl.Request{Op: ctrl.OpRelease, Circuit: c}
	}
	u := g.r.Float64()
	switch {
	case u < wireHealthP:
		return ctrl.Request{Op: ctrl.OpHealth}
	case u < wireHealthP+wireRerouteP && len(g.held) > 0:
		return ctrl.Request{Op: ctrl.OpReroute, Circuit: g.held[g.r.Intn(len(g.held))]}
	}
	a := g.r.Intn(g.chips)
	b := (a + 1 + g.r.Intn(g.chips-1)) % g.chips
	return ctrl.Request{Op: ctrl.OpEstablish, A: a, B: b, Width: wireWidth}
}

// observe feeds a response back into the generator's view of the
// held circuits.
func (g *churnGen) observe(req ctrl.Request, resp ctrl.Response) {
	switch req.Op {
	case ctrl.OpEstablish:
		if resp.Status == ctrl.StatusOK {
			g.held = append(g.held, resp.Circuit)
		}
	case ctrl.OpReroute:
		i := slices.Index(g.held, req.Circuit)
		switch resp.Status {
		case ctrl.StatusOK:
			g.held[i] = resp.Circuit
		case ctrl.StatusOverloaded, ctrl.StatusDeadline, ctrl.StatusBreakerOpen:
			// Refused before the server touched the circuit.
		default:
			// The server released the circuit and found no new path.
			g.held = slices.Delete(g.held, i, i+1)
		}
	}
}

// digestBlock is how many responses one streamDigest word covers.
const digestBlock = 1024

// streamDigest fingerprints a response stream by the responses' wire
// encodings, one FNV-1a word per block of digestBlock responses. A
// million-call stream keeps a thousand words, and a mismatch still
// names the block where two streams diverged.
type streamDigest struct {
	enc    snapshot.Encoder
	blocks []uint64
	cur    uint64
	n      int
}

func (d *streamDigest) add(resp ctrl.Response) {
	if d.n%digestBlock == 0 {
		d.cur = 14695981039346656037
	}
	d.enc.Reset()
	ctrl.EncodeResponseTo(&d.enc, resp)
	for _, b := range d.enc.Bytes() {
		d.cur = (d.cur ^ uint64(b)) * 1099511628211
	}
	d.n++
	if d.n%digestBlock == 0 {
		d.blocks = append(d.blocks, d.cur)
	}
}

// sums returns the block words, the trailing partial block included.
func (d *streamDigest) sums() []uint64 {
	if d.n%digestBlock == 0 {
		return d.blocks
	}
	return append(slices.Clone(d.blocks), d.cur)
}

// wireDaemon is one controller served over loopback TCP the way
// lightpath-controller serves it, with one client connection.
type wireDaemon struct {
	srv  *ctrl.Server
	h    *ctrl.Handler
	l    net.Listener
	cl   *ctrl.Client
	conn net.Conn
	done chan error
}

// startDaemon builds the server, handler, listener and client. A
// positive ckptEvery arms the handler's periodic checkpoint; hook, if
// set, runs on the server before it serves.
func startDaemon(cfg ctrl.Config, ckptPath string, ckptEvery uint64, hook func(*ctrl.Server)) (*wireDaemon, error) {
	srv, err := ctrl.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	if hook != nil {
		hook(srv)
	}
	d := &wireDaemon{srv: srv, h: ctrl.NewHandler(srv, wireTick), done: make(chan error, 1)}
	if ckptEvery > 0 {
		d.h.SetCheckpoint(ckptPath, ckptEvery)
	}
	if d.l, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go func() { d.done <- d.h.Serve(d.l) }()
	if d.conn, err = net.Dial("tcp", d.l.Addr().String()); err != nil {
		_ = d.l.Close()
		<-d.done
		return nil, err
	}
	d.cl = ctrl.NewClient(d.conn)
	return d, nil
}

// stop closes the connection and listener and waits for Serve.
func (d *wireDaemon) stop() error {
	cerr := d.conn.Close()
	lerr := d.l.Close()
	if err := <-d.done; err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	return lerr
}

// wireSession drives one daemon with the churn stream, digesting every
// response so the in-process replay can check it.
type wireSession struct {
	d      *wireDaemon
	gen    *churnGen
	digest streamDigest
	// Traced runs checkpoint from the client side, between calls, so
	// the save shows as its own span; ckptPath names the file.
	clientCkpt bool
	ckptPath   string
	// While rec is set, calls from traceFrom on alternate between
	// untraced and traced blocks (see tracedCall).
	rec       *recorder
	traceFrom int
}

// wireTraceBlock is how many consecutive calls a traced run leaves
// untraced, then traces, in turn. Interleaving the two makes the
// tracing overhead a comparison between neighbouring calls, free of
// drift over the run.
const wireTraceBlock = 256

// tracedCall reports whether call i of a traced window starting at
// call lo carries spans.
func tracedCall(i, lo int) bool { return i >= lo && (i-lo)/wireTraceBlock%2 == 1 }

// call sends the generator's next request and returns it with its
// response and round-trip time, and whether the call was traced. A
// traced call is a span, and the audit-hook spans nest under it; any
// checkpoint a call triggers in a traced window is a span too.
func (s *wireSession) call() (ctrl.Request, ctrl.Response, time.Duration, bool, error) {
	req := s.gen.next()
	n := s.digest.n
	traced := s.rec != nil && tracedCall(n, s.traceFrom)
	var sp int
	if traced {
		sp = s.rec.enter("ctrl.Client.Call", int64(n))
	}
	t0 := time.Now()
	resp, err := s.d.cl.Call(req)
	rtt := time.Since(t0)
	if traced {
		s.rec.leave(sp)
	}
	if err != nil {
		return req, resp, rtt, traced, fmt.Errorf("call %d: %w", n, err)
	}
	s.digest.add(resp)
	s.gen.observe(req, resp)
	if s.clientCkpt && s.digest.n%wireCkptEvery == 0 {
		if s.rec != nil {
			sp = s.rec.begin("ctrl.Handler.Checkpoint", -1, int64(n))
		}
		err := s.d.h.Checkpoint(s.ckptPath)
		if s.rec != nil {
			s.rec.end(sp)
		}
		if err != nil {
			return req, resp, rtt, traced, err
		}
	}
	return req, resp, rtt, traced, nil
}

// warm issues the stream's first wireWarmupCalls calls.
func (s *wireSession) warm() error {
	for i := 0; i < wireWarmupCalls; i++ {
		if _, _, _, _, err := s.call(); err != nil {
			return err
		}
	}
	return nil
}

// window is what a measured stretch of calls yields.
type window struct {
	lat    *latencyHist // round trips of the untraced calls
	reqs   []ctrl.Request
	resps  []ctrl.Response // kept when the caller asks (traced runs)
	perSec []float64       // calls completed in each whole second
}

// run issues calls until the budget elapses.
func (s *wireSession) run(budget time.Duration, keep bool) (*window, error) {
	w := &window{lat: newLatencyHist()}
	start := time.Now()
	next, count := time.Second, 0
	for {
		req, resp, rtt, traced, err := s.call()
		if err != nil {
			return nil, err
		}
		if !traced {
			w.lat.add(rtt)
		}
		if keep {
			w.reqs = append(w.reqs, req)
			w.resps = append(w.resps, resp)
		}
		count++
		el := time.Since(start)
		if el >= next {
			w.perSec = append(w.perSec, float64(count))
			count = 0
			next += time.Second
		}
		if el >= budget {
			if len(w.perSec) == 0 { // a window under a second
				w.perSec = append(w.perSec, float64(count)/el.Seconds())
			}
			return w, nil
		}
	}
}

// finish drains every held circuit, reads the final health report,
// stops the daemon and checks the server's end state: no circuit
// live, no invariant violation, no latched checkpoint error, and every
// request in exactly one terminal Stats bucket.
func (s *wireSession) finish() error {
	s.gen.draining = true
	for len(s.gen.held) > 0 {
		if _, _, _, _, err := s.call(); err != nil {
			return err
		}
	}
	_, health, _, _, err := s.call()
	if err != nil {
		return err
	}
	if err := s.d.stop(); err != nil {
		return err
	}
	if health.Status != ctrl.StatusOK || health.Circuits != 0 {
		return fmt.Errorf("after the drain: health %v with %d circuits live", health.Status, health.Circuits)
	}
	if err := s.d.h.CheckpointErr(); err != nil {
		return err
	}
	if n := s.d.srv.Auditor().Count(); n != 0 {
		return fmt.Errorf("%d invariant violations: %w", n, s.d.srv.Auditor().Err())
	}
	st := s.d.srv.Stats()
	buckets := st.Served + st.Shed + st.DeadlineMiss + st.BreakerRejects + st.NoPath +
		st.EndpointFailed + st.UnknownCircuit + st.BadRequest
	if buckets != st.Arrivals || st.Arrivals != s.digest.n {
		return fmt.Errorf("%d calls, %d arrivals, %d terminal outcomes", s.digest.n, st.Arrivals, buckets)
	}
	if st.UnknownCircuit != 0 || st.BadRequest != 0 {
		return fmt.Errorf("%d unknown-circuit and %d bad-request responses to a valid stream", st.UnknownCircuit, st.BadRequest)
	}
	return nil
}

// replay drives a fresh in-process Handler through the same stream and
// checks its responses against the wire's digest; the stream's calls
// from drainAt on drain the held circuits. When rec is set, the calls
// traced on the wire (tracedCall from lo, before hi) are recorded as
// Handler.Submit spans.
func replay(cfg ctrl.Config, seed uint64, wire *streamDigest, drainAt int, rec *recorder, lo, hi int) error {
	srv, err := ctrl.NewServer(cfg)
	if err != nil {
		return err
	}
	if rec != nil {
		wrapAuditHook(srv, rec)
	}
	h := ctrl.NewHandler(srv, wireTick)
	gen := newChurnGen(seed, srv.Allocator().Rack().NumChips())
	var got streamDigest
	for i := 0; i < wire.n; i++ {
		if i == drainAt {
			gen.draining = true
		}
		req := gen.next()
		req.ID = uint64(i + 1) // Client.Call's numbering
		traced := rec != nil && i < hi && tracedCall(i, lo)
		var sp int
		if traced {
			sp = rec.enter("ctrl.Handler.Submit", int64(i))
		}
		resp := h.Submit(req)
		if traced {
			rec.leave(sp)
		}
		got.add(resp)
		gen.observe(req, resp)
	}
	want, have := wire.sums(), got.sums()
	for b := range want {
		if want[b] != have[b] {
			return fmt.Errorf("wire responses to calls %d..%d differ from the in-process replay",
				b*digestBlock, min((b+1)*digestBlock, wire.n)-1)
		}
	}
	return nil
}

// wrapAuditHook re-registers the server's audit hook around the
// auditor's own public entry point, Auditor.Mutated, so behaviour is
// unchanged. While a Client.Call or Handler.Submit span is open, a
// mutation that ran an invariant pass becomes an invariant.audit span
// under it; one the sampler skipped is tallied as invariant.skip.
func wrapAuditHook(srv *ctrl.Server, rec *recorder) {
	aud := srv.Auditor()
	srv.Allocator().SetAuditHook(func(op string) {
		parent, req := rec.current()
		if parent < 0 {
			aud.Mutated(op)
			return
		}
		start, before := rec.now(), aud.Audits()
		aud.Mutated(op)
		end := rec.now()
		if aud.Audits() != before {
			rec.add(span{name: "invariant.audit", start: start, end: end, parent: parent, req: req})
		} else {
			rec.tally("invariant.skip", end-start)
		}
	})
}

// runWire runs the wire-churn workload.
func runWire(opts options) (*outcome, error) {
	cfg := ctrl.DefaultConfig()
	cfg.Seed = opts.seed
	ckpt := filepath.Join(opts.work, "controller.ckpt")
	if opts.trace {
		return runWireTraced(opts, cfg, ckpt)
	}
	// Set-up is building the daemon and client and warming it with the
	// first wireWarmupCalls calls of the stream (the route-plan cache
	// fills); the last of the timed set-ups is the one measured.
	var s *wireSession
	setup, err := medianTime(5, 1, func() error {
		if s != nil {
			if err := s.d.stop(); err != nil {
				return err
			}
		}
		d, err := startDaemon(cfg, ckpt, wireCkptEvery, nil)
		if err != nil {
			return err
		}
		s = &wireSession{d: d, gen: newChurnGen(opts.seed, d.srv.Allocator().Rack().NumChips())}
		return s.warm()
	})
	if err != nil {
		return nil, err
	}
	resetPeakRSS()
	w, err := s.run(opts.budget(), false)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	drainAt := s.digest.n
	out := &outcome{values: map[string]float64{}, attempted: int64(w.lat.n)}
	out.checkErr = s.finish()
	if out.checkErr == nil {
		out.checkErr = replay(cfg, opts.seed, &s.digest, drainAt, nil, 0, 0)
	}
	out.values["setup_s"] = setup.Seconds()
	out.values["p50_us"] = float64(w.lat.quantile(0.50)) / 1e3
	out.values["p90_us"] = float64(w.lat.quantile(0.90)) / 1e3
	out.values["ops_per_s"] = median(w.perSec)
	out.values["peak_rss_mb"] = rss
	return out, nil
}

// runWireTraced is wire-churn's traced run. It serves the same stream
// under a CPU profile, alternating blocks of untraced calls (the
// overhead baseline) with blocks of traced ones: a span around each
// Client.Call, around each invariant pass the audit hook runs, and
// around each checkpoint. Afterwards it replays the stream in-process
// with Handler.Submit spans on the traced calls, times the frame codec
// on the window's calls, and times checkpoint loads.
func runWireTraced(opts options, cfg ctrl.Config, ckpt string) (*outcome, error) {
	rec := newRecorder(1 << 18)
	d, err := startDaemon(cfg, ckpt, 0, func(srv *ctrl.Server) { wrapAuditHook(srv, rec) })
	if err != nil {
		return nil, err
	}
	s := &wireSession{d: d, gen: newChurnGen(opts.seed, d.srv.Allocator().Rack().NumChips()),
		clientCkpt: true, ckptPath: ckpt}
	if err := s.warm(); err != nil {
		return nil, err
	}

	lo := s.digest.n
	st0 := d.h.Stats()
	rt0 := sampleRuntime()
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	s.rec, s.traceFrom = rec, lo
	w, err := s.run(opts.budget(), true)
	if err != nil {
		return nil, err
	}
	s.rec = nil
	hi := s.digest.n
	flat, _, err := prof.shares()
	if err != nil {
		return nil, err
	}
	v := newLayerValues()
	runtimeDelta(v, rt0, sampleRuntime(), int64(hi-lo))
	st1 := d.h.Stats()
	wireSpans := rec.summarize()

	out := &outcome{values: v, attempted: int64(hi - lo)}
	out.checkErr = s.finish()
	if out.checkErr == nil {
		out.checkErr = replay(cfg, opts.seed, &s.digest, hi, rec, lo, hi)
	}
	all := rec.summarize()
	codecNS, err := timeCodec(rec, w.reqs, w.resps)
	if err != nil {
		return nil, err
	}
	loadNS, err := timeLoads(rec, cfg, ckpt)
	if err != nil {
		return nil, err
	}
	if err := rec.write(opts.spans); err != nil {
		return nil, err
	}

	// The wire and the replay traced the same calls, so their spans
	// split each traced round trip: Handler.Submit (its own time plus
	// the audits under it), the codec, and what neither explains — the
	// kernel loopback and goroutine scheduling.
	calls, submit := stat(wireSpans, "ctrl.Client.Call"), stat(all, "ctrl.Handler.Submit")
	wireAudit := stat(wireSpans, "invariant.audit").total + stat(wireSpans, "invariant.skip").total
	callTotal := float64(calls.total)
	untracedP50 := float64(w.lat.quantile(0.50))
	v["ctrl.handler.submit_ns_p50"] = float64(submit.pct(0.50))
	v["ctrl.handler.submit_ns_p99"] = float64(submit.pct(0.99))
	v["ctrl.wire.ns_p50"] = float64(calls.pct(0.50) - submit.pct(0.50))
	v["ctrl.wire.codec_ns"] = codecNS
	v["ctrl.client.call_ns_p99"] = float64(w.lat.quantile(0.99))
	v["ctrl.self_frac"] = ratio(float64(submit.self), callTotal)
	v["trace.overhead_frac"] = ratio(float64(calls.pct(0.50))-untracedP50, untracedP50)

	audits, skips := stat(wireSpans, "invariant.audit"), stat(wireSpans, "invariant.skip")
	v["invariant.audit_ns"] = ratio(float64(audits.total), float64(audits.count))
	v["invariant.audits_per_mutation"] = ratio(float64(audits.count), float64(audits.count+skips.count))
	v["invariant.busy_frac"] = ratio(float64(wireAudit), callTotal)

	v["snapshot.save_ns_p50"] = float64(stat(wireSpans, "ctrl.Handler.Checkpoint").pct(0.50))
	v["snapshot.load_ns"] = loadNS
	if fi, err := os.Stat(ckpt); err == nil {
		v["snapshot.bytes"] = float64(fi.Size())
	}

	arrivals := float64(st1.Arrivals - st0.Arrivals)
	v["ctrl.admission.shed_frac"] = ratio(float64(st1.Shed-st0.Shed), arrivals)
	v["ctrl.admission.deadline_frac"] = ratio(float64(st1.DeadlineMiss-st0.DeadlineMiss), arrivals)
	v["ctrl.admission.breaker_frac"] = ratio(float64(st1.BreakerRejects-st0.BreakerRejects), arrivals)
	v["route.nopath_frac"] = ratio(float64(st1.NoPath-st0.NoPath), arrivals)
	hits, misses := float64(st1.PlanCacheHits-st0.PlanCacheHits), float64(st1.PlanCacheMisses-st0.PlanCacheMisses)
	v["route.plan_cache.hit_ratio"] = ratio(hits, hits+misses)
	v["ctrl.reroutes"] = float64(st1.Reroutes - st0.Reroutes)
	var queue, probes, failed float64
	for _, r := range w.resps {
		if r.Status != ctrl.StatusOK {
			failed++
		}
		if r.Regions != nil {
			queue += float64(r.Queue)
			probes++
		}
	}
	v["ctrl.server.queue_depth_mean"] = ratio(queue, probes)
	v["fail_frac"] = ratio(failed, float64(len(w.resps)))
	setCPUShares(v, flat)
	// On this workload the spans, not the profile, give the split.
	v["unattributed_frac"] = 1 - ratio(float64(submit.total)+codecNS*float64(calls.count), callTotal)
	return out, nil
}

// timeCodec times the four frame-codec calls over the recorded
// stream, as one span, and returns the cost per call in ns.
func timeCodec(rec *recorder, reqs []ctrl.Request, resps []ctrl.Response) (float64, error) {
	var enc snapshot.Encoder
	sp := rec.begin("ctrl.codec", -1, -1)
	for i, req := range reqs {
		enc.Reset()
		ctrl.EncodeRequestTo(&enc, req)
		if _, err := ctrl.DecodeRequest(enc.Bytes()); err != nil {
			return 0, err
		}
		enc.Reset()
		ctrl.EncodeResponseTo(&enc, resps[i])
		if _, err := ctrl.DecodeResponse(enc.Bytes()); err != nil {
			return 0, err
		}
	}
	rec.end(sp)
	return ratio(float64(rec.duration(sp)), float64(len(reqs))), nil
}

// timeLoads restores the last checkpoint several times, each as a
// span, and returns the median load time in ns.
func timeLoads(rec *recorder, cfg ctrl.Config, path string) (float64, error) {
	var times []float64
	for i := 0; i < 5; i++ {
		sp := rec.begin("ctrl.LoadCheckpoint", -1, -1)
		_, err := ctrl.LoadCheckpoint(cfg, path)
		rec.end(sp)
		if err != nil {
			return 0, err
		}
		times = append(times, float64(rec.duration(sp)))
	}
	return median(times), nil
}
