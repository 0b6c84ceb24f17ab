package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"memotable"
	"memotable/internal/engine"
	"memotable/internal/experiments"
	"memotable/internal/report"
	"memotable/internal/trace"
	"memotable/internal/tracestore"
)

// The traced run. It builds the workload's passes in-process through
// the experiments/engine API — Plan, WarmContext, RunPassContext,
// Finish, RenderJSONArray — and wraps every capture function and sink
// in the benchmark's own timers, so each layer gets numbers measured
// from outside the program. Counters come from engine.Stats and
// service.Stats deltas of an untraced pass; durations from the traced
// one. A layer's self time is its span minus the part of that interval
// its child spans cover.

// span is one timed call. Parent is the enclosing phase span (0: none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(layer string, parent int32, start, end int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Start: start, End: end})
	return id
}

// open starts a span whose end is set by close.
func (t *tracer) open(layer string) int32 { return t.add(layer, 0, t.now(), -1) }

func (t *tracer) close(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// instr instruments one pass (one request, for serve-tiny). With a nil
// tracer it only counts events: the untraced twin of a traced pass.
type instr struct {
	tr        *tracer
	parent    atomic.Int32 // the open phase span captures and sinks nest under
	wraps     map[trace.Sink]*sinkWrap
	order     []*sinkWrap // wrappers in first-use order
	keys      []string    // distinct workload keys, in plan order
	capEvents atomic.Uint64
}

func newInstr(tr *tracer) *instr { return &instr{tr: tr, wraps: make(map[trace.Sink]*sinkWrap)} }

// phase runs f inside a span that the captures and sink calls made
// meanwhile nest under.
func (in *instr) phase(layer string, f func()) {
	if in.tr == nil {
		f()
		return
	}
	id := in.tr.open(layer)
	in.parent.Store(id)
	f()
	in.parent.Store(0)
	in.tr.close(id)
}

// leaf times f as a span with no children; safe for concurrent use.
func (in *instr) leaf(layer string, f func()) {
	if in.tr == nil {
		f()
		return
	}
	start := in.tr.now()
	f()
	in.tr.add(layer, 0, start, in.tr.now())
}

// sink returns the wrapper of s, one per distinct sink so the planner's
// identity dedup (shared sinks, fan-out groups) sees the same sharing.
// A non-comparable sink cannot be deduplicated; it is passed through
// unwrapped, as wrapping it would make it comparable and change how the
// engine schedules it.
func (in *instr) sink(s trace.Sink) trace.Sink {
	if s == nil || !reflect.TypeOf(s).Comparable() {
		return s
	}
	if w, ok := in.wraps[s]; ok {
		return w
	}
	w := &sinkWrap{in: in, inner: s, layer: sinkLayer(s)}
	in.wraps[s] = w
	in.order = append(in.order, w)
	return w
}

// sinkLayer names the module a sink's work belongs to.
func sinkLayer(s trace.Sink) string {
	if g, ok := s.(trace.GroupedSink); ok {
		s = g.Sink
	}
	t := reflect.TypeOf(s)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	switch {
	case strings.HasSuffix(t.PkgPath(), "/cpu"):
		return "cpu"
	case strings.HasSuffix(t.PkgPath(), "/memo"), t.Name() == "TableSet", t.Name() == "recipSink":
		return "memo"
	}
	return "trace"
}

// sinkWrap times and counts one sink's deliveries. It forwards the
// sink's class mask and fan-out group, so the engine skips blocks and
// groups consumers exactly as for the bare sink. The engine feeds a
// sink from one goroutine at a time, so events needs no lock.
type sinkWrap struct {
	in     *instr
	inner  trace.Sink
	layer  string
	events uint64
}

func (w *sinkWrap) Emit(ev trace.Event) {
	w.events++
	w.inner.Emit(ev)
}

func (w *sinkWrap) EmitBatch(evs []trace.Event) {
	w.events += uint64(len(evs))
	tr := w.in.tr
	if tr == nil {
		trace.EmitAll(w.inner, evs)
		return
	}
	start := tr.now()
	trace.EmitAll(w.inner, evs)
	tr.add(w.layer, w.in.parent.Load(), start, tr.now())
}

func (w *sinkWrap) OpMask() trace.OpMask { return trace.SinkMask(w.inner) }

func (w *sinkWrap) FanoutGroup() string {
	if g, ok := w.inner.(trace.FanoutGrouper); ok {
		return g.FanoutGroup()
	}
	return ""
}

// countingSink counts the events a capture emits into the engine.
type countingSink struct {
	trace.Sink
	n uint64
}

func (c *countingSink) Emit(ev trace.Event) {
	c.n++
	c.Sink.Emit(ev)
}

// capture wraps a workload's capture function in a probe.capture span.
func (in *instr) capture(c engine.CaptureFunc) engine.CaptureFunc {
	return func(s trace.Sink) {
		cs := &countingSink{Sink: s}
		var start int64
		if in.tr != nil {
			start = in.tr.now()
		}
		c(cs)
		in.capEvents.Add(cs.n)
		if in.tr != nil {
			in.tr.add("probe.capture", in.parent.Load(), start, in.tr.now())
		}
	}
}

// sinkEvents lists the events each distinct sink received, in
// first-use order.
func (in *instr) sinkEvents() []uint64 {
	n := make([]uint64, len(in.order))
	for i, w := range in.order {
		n[i] = w.events
	}
	return n
}

// instrumentedPass runs a selection the way experiments.RunContext
// does, with every call wrapped: plan each experiment, wrap its
// demands, warm every workload, run the fused replay pass, finish each
// plan and render the JSON array. It returns the JSON and the results.
func instrumentedPass(ctx context.Context, eng *memotable.Engine, scale memotable.Scale, names []string, in *instr) ([]byte, []*report.Result, error) {
	exps, err := experiments.Lookup(names...)
	if err != nil {
		return nil, nil, err
	}
	ectx := &experiments.Context{Eng: eng, Scale: scale}
	plans := make([]experiments.Plan, len(exps))
	for i, ex := range exps {
		in.leaf("experiments.plan", func() { plans[i] = ex.Plan(ectx) })
	}
	var subs []engine.Subscription
	var warm []engine.PassWorkload
	seen := make(map[string]bool)
	for _, p := range plans {
		for _, d := range p.Demands {
			sub := engine.Subscription{Sinks: make([]trace.Sink, len(d.Sinks))}
			for i, s := range d.Sinks {
				sub.Sinks[i] = in.sink(s)
			}
			for _, w := range d.Workloads {
				pw := engine.PassWorkload{Key: w.Key, Capture: in.capture(w.Capture)}
				sub.Workloads = append(sub.Workloads, pw)
				if !seen[w.Key] {
					seen[w.Key] = true
					warm = append(warm, pw)
					in.keys = append(in.keys, w.Key)
				}
			}
			subs = append(subs, sub)
		}
	}
	in.phase("engine.warm", func() {
		eng.Map(len(warm), func(i int) {
			// Failures surface again, attributed, in the replay pass.
			_ = eng.WarmContext(ctx, warm[i].Key, warm[i].Capture)
		})
	})
	var rep *engine.PassReport
	in.phase("engine.replay", func() { rep, err = eng.RunPassContext(ctx, subs) })
	if err != nil {
		return nil, nil, err
	}
	if err := passErr(rep); err != nil {
		return nil, nil, err
	}
	results := make([]*report.Result, len(exps))
	eng.Map(len(exps), func(i int) {
		in.leaf("experiments.finish", func() { results[i] = plans[i].Finish() })
		if results[i] != nil {
			results[i].Name = exps[i].Name
		}
	})
	var body []byte
	in.leaf("report.render", func() { body, err = memotable.RenderJSONArray(results) })
	return body, results, err
}

func passErr(rep *engine.PassReport) error {
	if rep.Canceled {
		return errors.New("pass canceled")
	}
	if len(rep.Errors) > 0 {
		return fmt.Errorf("%d failed cells, first: %v", len(rep.Errors), rep.Errors[0])
	}
	return nil
}

// plainPass is exactly the CLI's path: RunContext, then the JSON array.
func plainPass(ctx context.Context, eng *memotable.Engine, scale memotable.Scale, names []string) ([]byte, error) {
	results, rep, err := memotable.RunContext(ctx, eng, scale, names...)
	if err != nil {
		return nil, err
	}
	if err := passErr(rep); err != nil {
		return nil, err
	}
	return memotable.RenderJSONArray(results)
}

// newEngine configures an engine as memosim does for its flags.
func newEngine(spill, store string) (*memotable.Engine, error) {
	eng := memotable.NewEngine(0)
	eng.SetTraceDir(spill)
	if store != "" {
		st, err := memotable.OpenTraceStore(store)
		if err != nil {
			return nil, err
		}
		eng.SetStore(st)
	}
	return eng, nil
}

// passRun is one in-process pass of a CLI workload.
type passRun struct {
	body    []byte
	results []*report.Result
	wall    time.Duration
	stats   memotable.EngineStats
	in      *instr
}

// cliPasses runs the count-only and the traced pass of a CLI workload,
// each on a fresh engine with an empty spill directory and the given
// store (a fresh empty one per pass when store is "").
func (b *bench) cliPasses(scale memotable.Scale, names []string, store string, tr *tracer) ([2]passRun, error) {
	var runs [2]passRun
	for k, t := range []*tracer{nil, tr} {
		st := store
		if st == "" {
			st = b.path(fmt.Sprintf("store-pass%d", k))
		}
		spill := b.path(fmt.Sprintf("spill-pass%d", k))
		eng, err := newEngine(spill, st)
		if err != nil {
			return runs, err
		}
		runs[k].in = newInstr(t)
		start := time.Now()
		runs[k].body, runs[k].results, err = instrumentedPass(context.Background(), eng, scale, names, runs[k].in)
		runs[k].wall = time.Since(start)
		runs[k].stats = eng.Stats()
		cerr := eng.Close()
		os.RemoveAll(spill)
		if store == "" && k > 0 {
			os.RemoveAll(st) // only the count-only pass's store is read back
		}
		if err != nil {
			return runs, err
		}
		if cerr != nil {
			return runs, cerr
		}
	}
	return runs, nil
}

// fidelity checks the traced pass against its count-only twin: same
// output bytes, same mask skips, same per-sink event counts.
func fidelity(res *result, runs [2]passRun) {
	same := bytes.Equal(runs[0].body, runs[1].body)
	res.check(same)
	masks := runs[0].stats.MaskSkips == runs[1].stats.MaskSkips
	res.check(masks)
	counts := reflect.DeepEqual(runs[0].in.sinkEvents(), runs[1].in.sinkEvents())
	res.check(counts)
	if !same || !masks || !counts {
		fmt.Fprintf(os.Stderr, "perfbench: traced pass diverged: output %v, mask skips %v (%d/%d), per-sink counts %v\n",
			same, masks, runs[0].stats.MaskSkips, runs[1].stats.MaskSkips, counts)
	}
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setEngineCounters reports the engine counters of an untraced pass
// (a delta for the shared serve engine, the whole life of a fresh one).
func setEngineCounters(res *result, d memotable.EngineStats) {
	res.set("engine.captures", float64(d.Captures), "count")
	res.set("engine.capture_avoid_ratio", 1-ratio(float64(d.Captures), float64(d.Replays)), "ratio")
	res.set("engine.spilled_traces", float64(d.SpilledTraces), "count")
	res.set("engine.recaptures", float64(d.Recaptures), "count")
	res.set("engine.degraded_captures", float64(d.DegradedCaptures), "count")
	res.set("engine.budget_used_mib", float64(d.BudgetUsed)/(1<<20), "MiB")
	res.set("engine.decode_once_ratio", ratio(float64(d.DecodeOnceHits), float64(d.Replays)), "ratio")
	res.set("engine.fanout_replays", float64(d.FanoutReplays), "count")
	res.set("engine.ring_stalls", float64(d.RingStalls), "count")
	res.set("engine.mask_skips", float64(d.MaskSkips), "count")
	res.set("tracestore.puts", float64(d.StorePuts), "count")
	res.set("tracestore.hit_ratio", ratio(float64(d.StoreHits), float64(d.StoreHits+d.Captures)), "ratio")
}

// statsDelta subtracts the monotonic counters of two snapshots; gauges
// (spilled traces, budget use) keep their final value.
func statsDelta(after, before memotable.EngineStats) memotable.EngineStats {
	d := after
	d.Captures -= before.Captures
	d.Replays -= before.Replays
	d.Recaptures -= before.Recaptures
	d.DegradedCaptures -= before.DegradedCaptures
	d.DecodeOnceHits -= before.DecodeOnceHits
	d.FanoutReplays -= before.FanoutReplays
	d.RingStalls -= before.RingStalls
	d.MaskSkips -= before.MaskSkips
	d.StorePuts -= before.StorePuts
	d.StoreHits -= before.StoreHits
	return d
}

// setSpanMetrics reports the per-layer durations of the traced spans.
// Sink and capture time is busy time summed over goroutines; warm and
// replay self time is wall time no child span covered.
func setSpanMetrics(res *result, spans []span, sinkEvents map[string]uint64, capEvents uint64) {
	sum := make(map[string]time.Duration)
	self := make(map[string]time.Duration)
	children := make(map[int32][]span)
	for _, s := range spans {
		sum[s.Layer] += time.Duration(s.End - s.Start)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		if s.Layer == "engine.warm" || s.Layer == "engine.replay" {
			self[s.Layer] += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
		}
	}
	res.set("probe.capture_s", sum["probe.capture"].Seconds(), "s")
	res.set("probe.capture_mevents", float64(capEvents)/1e6, "Mevent")
	res.set("engine.warm_s", self["engine.warm"].Seconds(), "s")
	res.set("engine.replay_s", sum["engine.replay"].Seconds(), "s")
	res.set("engine.replay_self_s", self["engine.replay"].Seconds(), "s")
	for _, layer := range []string{"memo", "cpu"} {
		res.set(layer+".sink_s", sum[layer].Seconds(), "s")
		res.set(layer+".ns_per_event", ratio(float64(sum[layer].Nanoseconds()), float64(sinkEvents[layer])), "ns")
	}
	res.set("trace.sink_s", sum["trace"].Seconds(), "s")
	res.set("experiments.plan_s", sum["experiments.plan"].Seconds(), "s")
	res.set("experiments.finish_s", sum["experiments.finish"].Seconds(), "s")
	res.set("report.render_s", sum["report.render"].Seconds(), "s")
}

// covered is the length of the part of parent's interval that the union
// of its children's intervals covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64
	curEnd = -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = s, e
		} else {
			curEnd = max(curEnd, e)
		}
	}
	if curEnd > curStart {
		total += curEnd - curStart
	}
	return time.Duration(total)
}

// layerEvents sums the events each sink layer received over instrs.
func layerEvents(ins ...*instr) (map[string]uint64, uint64) {
	ev := make(map[string]uint64)
	var capEv uint64
	for _, in := range ins {
		for _, w := range in.order {
			ev[w.layer] += w.events
		}
		capEv += in.capEvents.Load()
	}
	return ev, capEv
}

// diskTimings times the store's read path and the v2 decode directly,
// outside any pass: tracestore.Store.Get (seal and every frame verified)
// and the trace reader's bytes-to-blocks decode, over the given keys.
func diskTimings(res *result, storeDir string, keys []string) error {
	var getDur, decDur time.Duration
	var bytesRead, events uint64
	if storeDir != "" {
		st, err := tracestore.Open(storeDir)
		if err != nil {
			return err
		}
		buf := make([]trace.Event, 0, 8192) // the engine's decoded-block size
		for _, key := range keys {
			t := time.Now()
			data, n, err := st.Get(key)
			getDur += time.Since(t)
			if err != nil {
				return fmt.Errorf("store entry %s: %w", key, err)
			}
			bytesRead += uint64(len(data))
			t = time.Now()
			r, err := trace.NewReader(bytes.NewReader(data))
			if err != nil {
				return err
			}
			var decoded uint64
			for {
				batch, err := r.ReadBatch(buf)
				if err == io.EOF {
					break
				}
				if err != nil {
					return fmt.Errorf("decode %s: %w", key, err)
				}
				decoded += uint64(len(batch))
			}
			decDur += time.Since(t)
			if decoded != n {
				return fmt.Errorf("decode %s: %d events, store verified %d", key, decoded, n)
			}
			events += decoded
		}
	}
	res.set("tracestore.get_s", getDur.Seconds(), "s")
	res.set("tracestore.get_mib", float64(bytesRead)/(1<<20), "MiB")
	res.set("trace.decode_ns_per_event", ratio(float64(decDur.Nanoseconds()), float64(events)), "ns")
	return nil
}

// writeSpans dumps the traced run's spans, one JSON object a line.
func (b *bench) writeSpans(name string, tr *tracer) error {
	path := filepath.Join(filepath.Dir(b.dir), "spans-"+name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return nil
}

// setServiceCounters reports the service counters (zero outside serve).
func setServiceCounters(res *result, d memotable.ServiceStats) {
	res.set("service.runs_started", float64(d.RunsStarted), "count")
	res.set("service.runs_coalesced", float64(d.RunsCoalesced), "count")
	res.set("service.coalesce_ratio", ratio(float64(d.RunsCoalesced), float64(d.Requests)), "ratio")
	res.set("service.rejected", float64(d.Rejected), "count")
}

// traceCLI finishes the traced run of a CLI workload from its two
// in-process passes and one real memosim pass.
func (b *bench) traceCLI(res *result, name string, runs [2]passRun, tr *tracer, cli procRun, store string) error {
	fidelity(res, runs)
	res.set("memosim.cpu_util", cli.cpuUtil(runtime.NumCPU()), "ratio")
	setEngineCounters(res, runs[0].stats)
	setServiceCounters(res, memotable.ServiceStats{})
	ev, capEv := layerEvents(runs[1].in)
	setSpanMetrics(res, tr.spans, ev, capEv)
	res.set("bench.trace_overhead_s", (runs[1].wall - runs[0].wall).Seconds(), "s")
	if err := diskTimings(res, store, runs[0].in.keys); err != nil {
		return err
	}
	return b.writeSpans(name, tr)
}

// traceTinyCold: one real cold CLI pass (checked against the goldens,
// for memosim.cpu_util), then the count-only and traced passes
// in-process, each cold on a fresh engine and empty store. The store
// the count-only pass filled is then read back directly.
func traceTinyCold(b *bench) (*result, error) {
	names, golden, err := goldens(b.root)
	if err != nil {
		return nil, err
	}
	res := newResult()
	cli := b.tinyPass(0)
	if cli.exitErr != nil {
		return nil, cli.exitErr
	}
	checkTinyText(res, cli.stdout, names, golden)
	tr := newTracer()
	runs, err := b.cliPasses(memotable.Tiny, nil, "", tr)
	if err != nil {
		return nil, err
	}
	// The count-only pass's text rendering must match the goldens too.
	for _, r := range runs[0].results {
		res.check(memotable.RenderText(r) == string(golden[r.Name]))
	}
	return res, b.traceCLI(res, "tiny-cold", runs, tr, cli, b.path("store-pass0"))
}

// traceQuickWarm: the same set-up pass as the untraced run, one real
// warm CLI pass, then the two in-process warm passes against the
// filled store, and the direct read of every store entry the pass uses.
func traceQuickWarm(b *bench) (*result, error) {
	res := newResult()
	var s cliSamples
	store, ref, err := b.quickFill(res, &s)
	if err != nil {
		return nil, err
	}
	cli := b.quickPass(0, store)
	if cli.exitErr != nil {
		return nil, cli.exitErr
	}
	res.check(bytes.Equal(cli.stdout, ref))
	tr := newTracer()
	runs, err := b.cliPasses(memotable.Quick, []string{quickSelection}, store, tr)
	if err != nil {
		return nil, err
	}
	res.check(bytes.Equal(runs[0].body, ref))
	return res, b.traceCLI(res, "quick-warm", runs, tr, cli, store)
}

// traceServeTiny: a shared engine warmed by one plain tiny `all` pass
// (its output is the reference of every selection), then one block of
// the script three times in two-tenant lockstep rounds (no percentiles
// are reported here, so one block's mix suffices) — through the
// service's HTTP handler in-process (service and engine counters), the
// count-only API path, and the traced API path.
func traceServeTiny(b *bench) (*result, error) {
	res := newResult()
	eng, err := newEngine(b.path("spill-serve"), "")
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ctx := context.Background()
	all, err := plainPass(ctx, eng, memotable.Tiny, nil)
	if err != nil {
		return nil, err
	}
	refs, err := references(all)
	if err != nil {
		return nil, err
	}

	svc := memotable.NewService(eng, memotable.ServiceConfig{})
	h := svc.Handler()
	s0, e0, cpu0 := svc.Stats(), eng.Stats(), processCPU()
	replies, wallA := lockstep(newScript(b.seed), 0, blockSize, func(c, _ int, sel string) bool {
		q := url.Values{"scale": {"tiny"}, "run": {sel}, "tenant": {fmt.Sprintf("t%d", c)}}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/run?"+q.Encode(), nil))
		return rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), refs[sel])
	})
	for _, r := range replies {
		res.check(r.ok)
	}
	util := (processCPU() - cpu0).Seconds() / (wallA.Seconds() * float64(runtime.NumCPU()))
	s1 := svc.Stats()
	setServiceCounters(res, memotable.ServiceStats{
		Requests:      s1.Requests - s0.Requests,
		RunsStarted:   s1.RunsStarted - s0.RunsStarted,
		RunsCoalesced: s1.RunsCoalesced - s0.RunsCoalesced,
		Rejected:      s1.Rejected - s0.Rejected,
	})
	setEngineCounters(res, statsDelta(eng.Stats(), e0))
	res.set("memosim.cpu_util", util, "ratio")

	tr := newTracer()
	var walls [2]time.Duration
	var masks [2]uint64
	var perReq [2]map[int][]uint64
	var ins []*instr
	for k, t := range []*tracer{nil, tr} {
		var mu sync.Mutex
		perReq[k] = make(map[int][]uint64)
		before := eng.Stats()
		var replies []reply
		replies, walls[k] = lockstep(newScript(b.seed), 0, blockSize, func(_, i int, sel string) bool {
			in := newInstr(t)
			body, _, err := instrumentedPass(ctx, eng, memotable.Tiny, strings.Split(sel, ","), in)
			mu.Lock()
			perReq[k][i] = in.sinkEvents()
			if t != nil {
				ins = append(ins, in)
			}
			mu.Unlock()
			return err == nil && bytes.Equal(body, refs[sel])
		})
		for _, r := range replies {
			res.check(r.ok)
		}
		masks[k] = eng.Stats().MaskSkips - before.MaskSkips
	}
	res.check(masks[0] == masks[1])
	res.check(reflect.DeepEqual(perReq[0], perReq[1]))
	if masks[0] != masks[1] || !reflect.DeepEqual(perReq[0], perReq[1]) {
		fmt.Fprintf(os.Stderr, "perfbench: traced serve script diverged: mask skips %d vs %d\n", masks[0], masks[1])
	}
	ev, capEv := layerEvents(ins...)
	setSpanMetrics(res, tr.spans, ev, capEv)
	res.set("bench.trace_overhead_s", (walls[1] - walls[0]).Seconds(), "s")
	if err := diskTimings(res, "", nil); err != nil {
		return nil, err
	}
	return res, b.writeSpans("serve-tiny", tr)
}

// processCPU is this process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
