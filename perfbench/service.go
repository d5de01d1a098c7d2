package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// clients is the number of closed-loop service clients: each sends its
// next request only after the previous answer arrived.
const clients = 2

// response is one answered (or failed) request.
type response struct {
	latency time.Duration
	status  int
	raw     json.RawMessage
	err     error
}

func (r response) ok() bool { return r.err == nil && r.status == 200 && len(r.raw) > 0 }

// drive sends units[order[i]] for every i from the closed-loop clients
// and returns the answers index-aligned with order.
func drive(d *daemon, units []unit, order []int) []response {
	out := make([]response, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					return
				}
				t0 := time.Now()
				status, raw, err := d.optimize(units[order[i]])
				out[i] = response{latency: time.Since(t0), status: status, raw: raw, err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// cycle is one service cycle: popsd on a fresh data directory serves
// every unit once (memo misses, computed) and then again (memo hits);
// it is restarted on the same directory and every unit is replayed
// (served from the durable store tier).
type cycle struct {
	dataDir                  string
	fresh, restart           float64       // set-up (s) on the empty and on the populated data dir
	peakMB                   float64       // the larger of the two processes
	cpu                      float64       // user + system CPU (s) of both popsd processes
	wall                     time.Duration // client time of both phases
	misses, repeats, replays []response
	scrapes                  []map[string]float64 // /metrics before each stop, when asked for
}

func runCycle(cfg *config, n int, units []unit, misses, repeats, replay []int, scrape bool) (*cycle, error) {
	cy := &cycle{dataDir: filepath.Join(cfg.work, fmt.Sprintf("data-%d", n))}
	phase := func(orders ...[]int) ([][]response, error) {
		d, err := startPopsd(cfg.popsd, cy.dataDir)
		if err != nil {
			return nil, err
		}
		if cy.fresh == 0 {
			cy.fresh = d.setup.Seconds()
		} else {
			cy.restart = d.setup.Seconds()
		}
		t0 := time.Now()
		var out [][]response
		for _, o := range orders {
			out = append(out, drive(d, units, o))
		}
		cy.wall += time.Since(t0)
		if scrape {
			m, err := d.metrics()
			if err != nil {
				d.stop()
				return nil, err
			}
			cy.scrapes = append(cy.scrapes, m)
		}
		peak, err := d.stop()
		cy.peakMB = math.Max(cy.peakMB, peak)
		if ps := d.cmd.ProcessState; ps != nil {
			cy.cpu += (ps.UserTime() + ps.SystemTime()).Seconds()
		}
		return out, err
	}
	first, err := phase(misses, repeats)
	if err != nil {
		return nil, err
	}
	second, err := phase(replay)
	if err != nil {
		return nil, err
	}
	cy.misses, cy.repeats, cy.replays = first[0], first[1], second[0]
	return cy, nil
}

// serviceCheck verifies one cycle's answers: every repeat and replay
// is byte-identical to the unit's first answer (and to the first
// cycle's), and every answer's feasibility matches delay ≤ Tc.
// Failures are counted; it returns the first answer per unit.
func serviceCheck(rep *report, cy *cycle, units []unit, misses, repeats, replay []int, ref []json.RawMessage) []json.RawMessage {
	firsts := make([]json.RawMessage, len(units))
	for i, r := range cy.misses {
		if r.ok() {
			firsts[misses[i]] = r.raw
		}
	}
	all := [][]response{cy.misses, cy.repeats, cy.replays}
	orders := [][]int{misses, repeats, replay}
	for p, rs := range all {
		for i, r := range rs {
			rep.attempted++
			u := orders[p][i]
			if !r.ok() {
				rep.failed++
				rep.check(false, "request for unit %d: status %d, %v", u, r.status, r.err)
				continue
			}
			rep.check(firsts[u] != nil && bytes.Equal(r.raw, firsts[u]), "unit %d: answer differs from its first answer", u)
			if ref != nil {
				rep.check(bytes.Equal(r.raw, ref[u]), "unit %d: answer differs from the first cycle's", u)
			}
			var w engine.OptimizeWire
			if err := json.Unmarshal(r.raw, &w); err != nil {
				rep.check(false, "unit %d: %v", u, err)
				continue
			}
			rep.check(w.Feasible == (w.Delay <= w.Tc), "unit %d: feasible=%v but delay %g, Tc %g", u, w.Feasible, w.Delay, w.Tc)
		}
	}
	return firsts
}

// latencies returns the responses' latencies in ms; a failed request
// counts as an infinitely late one.
func latencies(rs []response) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.latency) / float64(time.Millisecond)
		if !r.ok() {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// runService drives the service workload: whole cycles until the time
// is up (at least two; one when traced).
func runService(cfg *config, rep *report) error {
	units, misses, repeats, replay, err := serviceUnits(cfg.seed)
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceService(cfg, rep, units, misses, repeats, replay)
	}
	var fresh, restarts, walls, peaks, missL, hitL, restartL, cpus []float64
	var ref []json.RawMessage
	var phaseWall time.Duration
	requests := 0
	dl := newDeadline(cfg.seconds, 2)
	for dl.next() {
		t0 := time.Now()
		cy, err := runCycle(cfg, dl.n, units, misses, repeats, replay, false)
		if err != nil {
			return err
		}
		dl.done(time.Since(t0))
		firsts := serviceCheck(rep, cy, units, misses, repeats, replay, ref)
		if ref == nil {
			ref = firsts
		}
		os.RemoveAll(cy.dataDir)
		fresh = append(fresh, cy.fresh)
		restarts = append(restarts, cy.restart)
		walls = append(walls, cy.wall.Seconds())
		cpus = append(cpus, cy.cpu)
		peaks = append(peaks, cy.peakMB)
		missL = append(missL, latencies(cy.misses)...)
		hitL = append(hitL, latencies(cy.repeats)...)
		restartL = append(restartL, latencies(cy.replays)...)
		phaseWall += cy.wall
		requests += len(cy.misses) + len(cy.repeats) + len(cy.replays)
	}
	// A cycle's two starts differ by the store open and journal replay
	// (about 6 vs 21 ms): a median over both would fall in the gap.
	rep.set("setup_s", median(restarts), "s", fmt.Sprintf("median of %d popsd restarts on the data dir, exec until /healthz answers", len(restarts)))
	rep.info("setup_fresh_s", median(fresh), "s", fmt.Sprintf("median of %d popsd starts on an empty data dir", len(fresh)))
	rep.set("cpu_s", median(cpus), "s", fmt.Sprintf("median over %d cycles of popsd's user+system CPU time (both processes of a cycle)", len(cpus)))
	rep.info("wall_s", median(walls), "s", fmt.Sprintf("median over %d cycles of the client time of all %d requests of a cycle", len(walls), 3*len(units)))
	rep.set("peak_rss_mb", median(peaks), "MB", "median over cycles of popsd's peak RSS")
	all := append(append(append([]float64(nil), missL...), hitL...), restartL...)
	rep.info("miss_p50_ms", median(missL), "ms", fmt.Sprintf("computed requests, n=%d", len(missL)))
	rep.info("hit_p50_ms", median(hitL), "ms", fmt.Sprintf("memo hits, n=%d", len(hitL)))
	rep.info("restart_p50_ms", median(restartL), "ms", fmt.Sprintf("store-tier hits after restart, n=%d", len(restartL)))
	if v, pct, ok := tail(all); ok {
		rep.info("req_tail_ms", v, "ms", fmt.Sprintf("p%.2f over all requests, n=%d", pct, len(all)))
	}
	rep.info("req_per_s", float64(requests)/phaseWall.Seconds(), "req/s", fmt.Sprintf("%d closed-loop clients", clients))
	var tasks []task
	for _, raw := range ref {
		var w engine.OptimizeWire
		if raw != nil && json.Unmarshal(raw, &w) == nil {
			tasks = append(tasks, wireTask(w))
		}
	}
	rep.check(len(tasks) == len(units), "only %d of %d units answered", len(tasks), len(units))
	setQuality(rep, tasks)
	return nil
}
