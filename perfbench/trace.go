package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffering"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/store"
	"repro/internal/tech"
)

// The traced run re-drives the workload's tasks through the public
// calls of each layer, timing every call from the benchmark's own
// code. Spans are kept in memory and written out when the run ends.

// span is one timed call: name, start, end, parent span and task.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: none
	Task   int           `json:"task"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the trace began
	End    time.Duration `json:"end_ns"`
}

// tracer records spans from any goroutine.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, task, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Task: task, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(name string, task, parent int, f func()) {
	id := t.begin(name, task, parent)
	f()
	t.end(id)
}

// layerStat is the aggregate of one span name.
type layerStat struct {
	Calls int     `json:"calls"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"` // total less the time children cover
}

// aggregate sums spans by name. A span's self time is its duration
// minus the union of its children's intervals.
func (t *tracer) aggregate() map[string]*layerStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerStat{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := (s.End - s.Start).Seconds()
		st.Calls++
		st.Total += d
		st.Self += d - covered(children[s.ID]).Seconds()
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) time.Duration {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total, from, to time.Duration
	open := false
	for _, s := range ss {
		switch {
		case !open || s.Start > to:
			if open {
				total += to - from
			}
			from, to, open = s.Start, s.End, true
		case s.End > to:
			to = s.End
		}
	}
	if open {
		total += to - from
	}
	return total
}

// write stores every span and the per-name aggregate as JSON.
func (t *tracer) write(path string, agg map[string]*layerStat) error {
	t.mu.Lock()
	data, err := json.Marshal(map[string]any{"spans": t.spans, "layers": agg})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// counters are the per-layer counts of a traced run. The sta and core
// recorders are installed through the layers' public seams.
type counters struct {
	staFull, staReused         atomic.Int64
	rounds, structural         atomic.Int64
	norRewrites                atomic.Int64
	bufferingRan, bufferingHit atomic.Int64
	considered, promoted       atomic.Int64
}

// staRecorder counts Session.Analyze calls (sta.Recorder).
type staRecorder struct{ c *counters }

func (r staRecorder) Analyzed(full bool) {
	if full {
		r.c.staFull.Add(1)
	} else {
		r.c.staReused.Add(1)
	}
}

// coreRecorder counts protocol rounds (core.Recorder).
type coreRecorder struct{ c *counters }

func (r coreRecorder) RoundDone(structural bool) {
	r.c.rounds.Add(1)
	if structural {
		r.c.structural.Add(1)
	}
}

func (coreRecorder) StageDone(string, time.Duration) {}

// env is the protocol set-up the re-drive shares across tasks,
// configured as the engine configures its own.
type env struct {
	tr     *tracer
	cnt    *counters
	model  *delay.Model
	limits map[gate.Type]float64
	proto  *core.Protocol
}

func newEnv() (*env, error) {
	model := delay.NewModel(tech.CMOS025())
	limits := buffering.Limits(buffering.CharacterizeLibrary(model, nil, buffering.Options{}))
	cnt := &counters{}
	proto, err := core.NewProtocol(core.Config{Model: model, Limits: limits, Recorder: coreRecorder{cnt}})
	if err != nil {
		return nil, err
	}
	return &env{tr: newTracer(), cnt: cnt, model: model, limits: limits, proto: proto}, nil
}

// maxRounds is the engine's default round cap (core.Config.MaxRounds).
const maxRounds = 12

// bounds memoizes a circuit's Tmin/Tmax the way the engine's bounds
// memo does: once per input, shared by its ratios.
type bounds struct {
	once       sync.Once
	tmin, tmax float64
	err        error
}

// redrive is one task re-driven round by round: it returns the
// outcome and the optimized circuit.
func (en *env) redrive(ctx context.Context, task int, master *netlist.Circuit, ratio float64, leak bool, par int, bd *bounds) (*core.CircuitOutcome, *netlist.Circuit, error) {
	tr, m := en.tr, en.model
	root := tr.begin("task", task, 0)
	defer tr.end(root)
	c := master.Clone()
	sess := en.proto.NewTimingSession(c)
	sess.SetParallelism(par)
	rec := staRecorder{en.cnt}
	// analyze is Session.Analyze under the counting recorder; the
	// step's own Analyze then reuses the fresh result uncounted, so the
	// counts match one Analyze per round, as the engine's loop makes.
	analyze := func(parent int) (res *sta.Result, err error) {
		sess.SetRecorder(rec)
		tr.timed("sta.analyze", task, parent, func() { res, err = sess.Analyze() })
		sess.SetRecorder(nil)
		return res, err
	}

	bid := tr.begin("bounds", task, root)
	res, err := analyze(bid)
	if err != nil {
		return nil, nil, err
	}
	var pa *delay.Path
	tr.timed("sta.path", task, bid, func() { pa, err = sta.PathFromNodes(c.Name, res.CriticalNodes(), m, sta.Config{}) })
	if err != nil {
		return nil, nil, err
	}
	bd.once.Do(func() {
		tr.timed("sizing.tmax", task, bid, func() { bd.tmax = sizing.Tmax(m, pa.Clone()) })
		var r *sizing.Result
		tr.timed("sizing.tmin", task, bid, func() { r, bd.err = sizing.Tmin(m, pa.Clone(), sizing.Options{}) })
		if bd.err == nil {
			bd.tmin = r.Delay
		}
	})
	tr.end(bid)
	if bd.err != nil {
		return nil, nil, bd.err
	}
	tc := ratio * bd.tmin

	out := &core.CircuitOutcome{Tc: tc}
	for round := 0; round < maxRounds; round++ {
		rid := tr.begin("round", task, root)
		res, err := analyze(rid)
		if err != nil {
			return nil, nil, err
		}
		if res.WorstDelay <= tc {
			out.Feasible = true
			tr.end(rid)
			break
		}
		var pa *delay.Path
		tr.timed("sta.path", task, rid, func() {
			pa, err = sta.PathFromNodes(fmt.Sprintf("%s/round%d", c.Name, round), res.CriticalNodes(), m, sta.Config{})
		})
		if err != nil {
			return nil, nil, err
		}
		replica := pa.Clone()
		var st *core.StepResult
		tr.timed("core.step", task, rid, func() { st, err = en.proto.OptimizeStep(sess, tc, round) })
		if err != nil {
			return nil, nil, err
		}
		if st.Met || st.Outcome == nil {
			return nil, nil, fmt.Errorf("round %d: step found Tc met after the analysis did not", round)
		}
		po := st.Outcome
		if err := en.replicate(task, rid, replica, po); err != nil {
			return nil, nil, fmt.Errorf("%s round %d: %w", c.Name, round, err)
		}
		if po.Domain != core.Weak {
			en.cnt.bufferingRan.Add(1)
			if po.Buffers > 0 {
				en.cnt.bufferingHit.Add(1)
			}
		}
		en.cnt.norRewrites.Add(int64(st.NorRewrites))
		out.Rounds = round + 1
		out.Buffers += st.Buffers
		out.NorRewrites += st.NorRewrites
		tr.end(rid)
		if !po.Feasible && !st.Progress {
			break
		}
	}
	sess.SetRecorder(rec)
	tr.timed("sta.summarize", task, root, func() { err = en.proto.Summarize(sess, out) })
	sess.SetRecorder(nil)
	if err != nil {
		return nil, nil, err
	}
	if !leak {
		return out, c, nil
	}

	// The leakage pass, with the options core.OptimizeWithLeakageSession
	// derives from the engine's zero policy.
	opts := leakage.Options{STA: sess.Config()}
	opts.Power.Parallelism = sess.Config().Parallelism
	sess.SetRecorder(rec)
	var lr *leakage.Result
	tr.timed("leakage.assign", task, root, func() { lr, err = leakage.AssignSession(ctx, sess, tc, opts) })
	sess.SetRecorder(nil)
	if err != nil {
		return nil, nil, err
	}
	tr.timed("power.profile", task, root, func() { _, err = power.SimulateProfile(c.Clone(), opts.Power) })
	if err != nil {
		return nil, nil, err
	}
	en.cnt.considered.Add(int64(lr.Considered))
	en.cnt.promoted.Add(int64(lr.Promoted))
	out.Leakage = lr
	out.Delay = lr.Delay
	out.Feasible = lr.Delay <= tc
	return out, c, nil
}

// replicate re-issues the Fig. 7 decision's public calls on a clone of
// the round's path at the round's Tc, in core's order, and fails unless
// the replica lands on the round's outcome bit for bit.
func (en *env) replicate(task, parent int, pa *delay.Path, po *core.PathOutcome) error {
	tr, m, tc := en.tr, en.model, po.Tc
	id := tr.begin("replica", task, parent)
	defer tr.end(id)
	opts := sizing.Options{NoTrace: true}
	var tmax float64
	tr.timed("sizing.tmax", task, id, func() { tmax = sizing.Tmax(m, pa.Clone()) })
	work := pa.Clone()
	var rmin *sizing.Result
	var err error
	tr.timed("sizing.tmin", task, id, func() { rmin, err = sizing.Tmin(m, work, opts) })
	if err != nil {
		return err
	}
	dom := core.Classify(tc, rmin.Delay)
	method, d, a, nbuf := "", 0.0, 0.0, 0
	distribute := func(p *delay.Path) (r *sizing.Result, err error) {
		tr.timed("sizing.distribute", task, id, func() { r, err = sizing.Distribute(m, p, tc, opts) })
		return r, err
	}
	switch dom {
	case core.Weak:
		r, err := distribute(work)
		if err != nil {
			return err
		}
		method, d, a = "sizing", r.Delay, r.Area
	case core.Medium, core.Hard:
		plain, err := distribute(pa.Clone())
		if err != nil {
			return err
		}
		mode, name := buffering.Local, "buffer-insertion"
		if dom == core.Hard {
			mode, name = buffering.Global, "buffer-insertion+global-sizing"
		}
		var buf *buffering.Result
		var errBuf error
		tr.timed("buffering.distribute", task, id, func() {
			buf, errBuf = buffering.DistributeWithBuffers(m, pa, tc, en.limits, mode, opts)
		})
		if errBuf == nil && buf.Delay <= tc*(1+1e-6) && buf.Area < plain.Area {
			method, d, a, nbuf = name, buf.Delay, buf.Area, buf.Inserted
		} else {
			method, d, a = "sizing", plain.Delay, plain.Area
		}
	default:
		var best *buffering.Result
		tr.timed("buffering.min_delay", task, id, func() { best, err = buffering.MinDelayWithBuffers(m, pa, en.limits, opts) })
		if err != nil {
			return err
		}
		method, d, a, nbuf = "structure-modification-required", best.Delay, best.Area, best.Inserted
		if best.Delay <= tc {
			r, err := distribute(best.Path)
			if err != nil && !errors.Is(err, sizing.ErrInfeasible) {
				return err
			}
			if err == nil {
				method, d, a = "buffer-insertion+global-sizing", r.Delay, r.Area
			}
		}
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if dom != po.Domain || method != po.Method || !same(d, po.Delay) || !same(a, po.Area) ||
		nbuf != po.Buffers || !same(rmin.Delay, po.Tmin) || !same(tmax, po.Tmax) {
		return fmt.Errorf("replica %s/%s delay %v area %v differs from the round's %s/%s delay %v area %v",
			dom, method, d, a, po.Domain, po.Method, po.Delay, po.Area)
	}
	return nil
}

// verify is the correctness gate on a re-driven task: the optimized
// netlist computes its input's function, a fresh full analysis
// reproduces the reported delay, and the outcome equals the engine's.
func (en *env) verify(rep *report, master, opt *netlist.Circuit, out *core.CircuitOutcome, tmin float64, want task) {
	trials := 64
	if len(master.Nodes) > 10000 {
		trials = 8
	}
	ce, err := logic.Equivalent(master, opt, trials, 1)
	rep.check(err == nil && ce == nil, "%s: optimized netlist not equivalent to its input: %v %v", want.Circuit, ce, err)
	res, err := sta.Analyze(opt, en.model, sta.Config{})
	rep.check(err == nil && res != nil && res.WorstDelay == out.Delay, "%s: fresh analysis does not reproduce delay %v", want.Circuit, out.Delay)
	area := opt.Area(en.model.Proc.WidthForCap)
	rep.check(area == out.Area, "%s: netlist area %v differs from the reported %v", want.Circuit, area, out.Area)
	got := task{Circuit: want.Circuit, Tc: out.Tc, Tmin: tmin, Delay: out.Delay, Area: out.Area,
		Feasible: out.Feasible, Rounds: out.Rounds, Buffers: out.Buffers}
	if out.Leakage != nil {
		got.PowerUW = out.Leakage.TotalAfterUW
	}
	rep.check(got == want, "%s at Tc %v: re-driven outcome %+v differs from the engine's %+v", want.Circuit, want.Tc, got, want)
	rep.check(out.Feasible == (out.Delay <= out.Tc), "%s: feasible=%v but delay %v, Tc %v", want.Circuit, out.Feasible, out.Delay, out.Tc)
}

// traceInproc is the traced run of the suite, large and leakage
// workloads: one untraced engine call (in a child, as timed runs make
// it) for the reference result and engine counters, then the traced
// re-drive of every task on two goroutines.
func traceInproc(cfg *config, rep *report, in *childInput) error {
	path, err := writeInput(cfg, in)
	if err != nil {
		return err
	}
	ref, _, err := runChild(path)
	if err != nil {
		return err
	}
	want := expectedTasks(in)
	checkTasks(rep, ref.Tasks, want)
	if len(ref.Tasks) != want {
		return fmt.Errorf("engine returned %d tasks, want %d", len(ref.Tasks), want)
	}

	en, err := newEnv()
	if err != nil {
		return err
	}
	ctx := context.Background()
	t0 := time.Now()
	masters := make([]*netlist.Circuit, len(in.Benches))
	for i, b := range in.Benches {
		var pb *engine.ParsedBench
		en.tr.timed("netlist.parse", i, 0, func() { pb, err = engine.ParseBench(b) })
		if err != nil {
			return err
		}
		en.tr.timed("netlist.fingerprint", i, 0, func() { _ = netlist.Fingerprint(pb.Circuit) })
		masters[i] = pb.Circuit
	}
	rats := []float64{in.Ratio}
	par := 2 // a lone task on an idle two-worker engine gets both cores
	if in.Suite {
		rats, par = ratios, 1
	}
	bds := make([]bounds, len(masters))
	outs := make([]*core.CircuitOutcome, want)
	opts := make([]*netlist.Circuit, want)
	errs := make([]error, want)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= want {
					return
				}
				k := i / len(rats)
				outs[i], opts[i], errs[i] = en.redrive(ctx, i, masters[k], rats[i%len(rats)], in.Leakage, par, &bds[k])
			}
		}()
	}
	wg.Wait()
	traced := time.Since(t0).Seconds()
	for i, err := range errs {
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.check(false, "task %d: %v", i, err)
			continue
		}
		k := i / len(rats)
		en.verify(rep, masters[k], opts[i], outs[i], bds[k].tmin, ref.Tasks[i])
	}

	agg := en.tr.aggregate()
	layerMetrics(rep, agg, en.cnt, ref.Snap, ref.WallS)
	rep.set("trace.overhead_s", traced-ref.WallS, "s", fmt.Sprintf("traced re-drive %.3f s less the untraced engine call %.3f s", traced, ref.WallS))
	return writeTrace(cfg, rep, en.tr, agg)
}

// writeTrace stores the spans under the build directory and prints the
// per-span-name aggregate.
func writeTrace(cfg *config, rep *report, tr *tracer, agg map[string]*layerStat) error {
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := agg[n]
		rep.extra = append(rep.extra, fmt.Sprintf("  span %-22s calls %6d  total %9.4f s  self %9.4f s", n, a.Calls, a.Total, a.Self))
	}
	path := filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path, agg); err != nil {
		return err
	}
	rep.extra = append(rep.extra, "  spans written to "+path)
	return nil
}

// engine metric keys (obs snapshot / Prometheus exposition).
func memoKey(kind, family string) string {
	return fmt.Sprintf("pops_memo_%s_total{family=%q}", kind, family)
}

func hitRatio(snap map[string]float64, family string) float64 {
	h, m := snap[memoKey("hits", family)], snap[memoKey("misses", family)]
	return ratio(h, h+m)
}

// layerMetrics sets every per-layer metric from the span aggregate,
// the counters and the engine's own counters. Layers the workload does
// not reach read 0.
func layerMetrics(rep *report, agg map[string]*layerStat, cnt *counters, snap map[string]float64, wall float64) {
	total := func(names ...string) float64 { return sumLayers(agg, names, false) }
	calls := func(names ...string) float64 { return sumLayers(agg, names, true) }
	c := func(v *atomic.Int64) float64 { return float64(v.Load()) }
	rep.set("netlist.parse_s", total("netlist.parse"), "s", "engine.ParseBench of every input")
	rep.set("netlist.fingerprint_s", total("netlist.fingerprint"), "s", "netlist.Fingerprint of every input")
	rep.set("sta.full_analyses", c(&cnt.staFull), "count", "Session.Analyze full passes")
	rep.set("sta.reused_analyses", c(&cnt.staReused), "count", "Session.Analyze served from incremental state")
	rep.set("sta.analyze_s", total("sta.analyze"), "s", "Session.Analyze timed by the round driver")
	rep.set("core.rounds", c(&cnt.rounds), "count", "via core.Config.Recorder")
	rep.set("core.structural_rounds", c(&cnt.structural), "count", "rounds that inserted buffers or rewrote NORs")
	rep.set("core.step_s", total("core.step"), "s", "Protocol.OptimizeStep")
	rep.set("sizing.tmin_calls", calls("sizing.tmin"), "count", "bounds and replica")
	rep.set("sizing.tmin_s", total("sizing.tmin"), "s", "")
	rep.set("sizing.distribute_calls", calls("sizing.distribute"), "count", "")
	rep.set("sizing.distribute_s", total("sizing.distribute"), "s", "")
	rep.set("sizing.tmax_s", total("sizing.tmax"), "s", "")
	rep.set("buffering.calls", calls("buffering.distribute", "buffering.min_delay"), "count", "DistributeWithBuffers + MinDelayWithBuffers")
	rep.set("buffering.s", total("buffering.distribute", "buffering.min_delay"), "s", "")
	rep.set("buffering.accept_ratio", ratio(c(&cnt.bufferingHit), c(&cnt.bufferingRan)), "ratio", "rounds whose chosen method inserted buffers / rounds that ran buffering")
	rep.set("restructure.nor_rewrites", c(&cnt.norRewrites), "count", "")
	rep.set("leakage.assign_s", total("leakage.assign"), "s", "leakage.AssignSession, STA updates inside it included")
	rep.set("leakage.considered", c(&cnt.considered), "count", "")
	rep.set("leakage.promoted", c(&cnt.promoted), "count", "")
	rep.set("leakage.accept_ratio", ratio(c(&cnt.promoted), c(&cnt.considered)), "ratio", "promoted / considered")
	rep.set("power.profile_s", total("power.profile"), "s", "power.SimulateProfile on a clone with the pass's options")
	rep.set("engine.result_hit_ratio", hitRatio(snap, "result"), "ratio", "")
	rep.set("engine.bounds_hit_ratio", hitRatio(snap, "bounds"), "ratio", "")
	rep.set("engine.alias_hit_ratio", hitRatio(snap, "alias"), "ratio", "named circuits only; inline .bench never aliases")
	rep.set("engine.busy_frac", ratio(snap["pops_task_duration_seconds_sum"], 2*wall), "ratio", "Σ task time / (2 workers × wall)")
	rep.set("engine.http_s", snap["pops_http_request_duration_seconds_sum"], "s", "server-side HTTP time")
	sh, sm := snap["pops_store_hits_total"], snap["pops_store_misses_total"]
	rep.set("store.hit_ratio", ratio(sh, sh+sm), "ratio", "")
	rep.set("store.writes", snap["pops_store_writes_total"], "count", "")
	rep.set("store.errors", snap["pops_store_errors_total"], "count", "")
	for _, n := range []string{"store.open_s", "store.get_s", "store.put_s"} {
		if _, ok := rep.metrics[n]; !ok {
			rep.set(n, 0, "s", "")
		}
	}
}

// traceService is the traced run of the service workload: one cycle
// with /metrics scraped before each stop, then the store and ingest
// calls timed directly on the cycle's data and inputs.
func traceService(cfg *config, rep *report, units []unit, misses, repeats, replay []int) error {
	cy, err := runCycle(cfg, 1, units, misses, repeats, replay, true)
	if err != nil {
		return err
	}
	serviceCheck(rep, cy, units, misses, repeats, replay, nil)
	en, err := newEnv()
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for i, u := range units {
		if seen[u.Bench] {
			continue
		}
		seen[u.Bench] = true
		var pb *engine.ParsedBench
		en.tr.timed("netlist.parse", i, 0, func() { pb, err = engine.ParseBench(u.Bench) })
		if err != nil {
			return err
		}
		en.tr.timed("netlist.fingerprint", i, 0, func() { _ = netlist.Fingerprint(pb.Circuit) })
	}
	if err := timeStore(en.tr, filepath.Join(cy.dataDir, "results"), rep, len(units)); err != nil {
		return err
	}
	snap := map[string]float64{}
	for _, s := range cy.scrapes {
		for k, v := range s {
			snap[k] += v
		}
	}
	agg := en.tr.aggregate()
	rep.set("store.open_s", sumLayers(agg, []string{"store.open"}, false), "s", "store.OpenDisk of the cycle's data dir")
	rep.set("store.get_s", sumLayers(agg, []string{"store.get"}, false), "s", "Get of every stored result")
	rep.set("store.put_s", sumLayers(agg, []string{"store.put"}, false), "s", "Put of every stored result, rewritten in place")
	layerMetrics(rep, agg, en.cnt, snap, cy.wall.Seconds())
	rep.set("trace.overhead_s", 0, "s", "nothing re-driven: the service cycle runs untraced")
	return writeTrace(cfg, rep, en.tr, agg)
}

// sumLayers adds up the total seconds (or, with calls, the call
// counts) of the named spans.
func sumLayers(agg map[string]*layerStat, names []string, calls bool) float64 {
	s := 0.0
	for _, n := range names {
		if a := agg[n]; a != nil && calls {
			s += float64(a.Calls)
		} else if a != nil {
			s += a.Total
		}
	}
	return s
}

// timeStore opens the persisted results directory and times Get and
// Put of every record through the store's public calls.
func timeStore(tr *tracer, dir string, rep *report, units int) error {
	var d *store.Disk
	var err error
	tr.timed("store.open", 0, 0, func() { d, err = store.OpenDisk(dir, obs.Discard()) })
	if err != nil {
		return err
	}
	defer d.Close()
	var keys []string
	if err := d.Scan(func(k string, _ []byte) error { keys = append(keys, k); return nil }); err != nil {
		return err
	}
	rep.check(len(keys) == units, "store holds %d results, want %d", len(keys), units)
	for i, k := range keys {
		var v []byte
		tr.timed("store.get", i, 0, func() { v, err = d.Get(k) })
		if err != nil {
			return err
		}
		tr.timed("store.put", i, 0, func() { err = d.Put(k, v) })
		if err != nil {
			return err
		}
	}
	return nil
}
