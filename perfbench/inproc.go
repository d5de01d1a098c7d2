package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/engine"
)

// childInput is what the parent hands one in-process child run.
type childInput struct {
	Setup   string   `json:"setup"`   // .bench of the set-up probe
	Benches []string `json:"benches"` // one (Optimize) or many (Suite)
	Suite   bool     `json:"suite"`
	Ratio   float64  `json:"ratio"`
	Leakage bool     `json:"leakage"`
}

// childOutput is what the child reports back on standard output.
type childOutput struct {
	SetupS []float64          `json:"setup_s"`
	WallS  float64            `json:"wall_s"`
	CPUS   float64            `json:"cpu_s"` // user + system CPU of the call
	Tasks  []task             `json:"tasks"`
	Raw    json.RawMessage    `json:"raw"`  // the engine's result, marshalled
	Snap   map[string]float64 `json:"snap"` // engine metrics of the call
}

// task is one optimized (circuit, Tc) unit, as every workload reports it.
type task struct {
	Circuit  string  `json:"circuit"`
	Tc       float64 `json:"tc"`
	Tmin     float64 `json:"tmin"`
	Delay    float64 `json:"delay"`
	Area     float64 `json:"area"`
	Feasible bool    `json:"feasible"`
	Rounds   int     `json:"rounds"`
	Buffers  int     `json:"buffers"`
	PowerUW  float64 `json:"power_uw,omitempty"` // total after Vt assignment
}

// setupProbes is how many engines a child builds and readies before
// the measured one; all of them are set-up samples.
const setupProbes = 15

// newReadyEngine builds a 2-worker engine and readies it: the first
// job characterizes the library, so a c17 optimize warms it. The
// returned duration is the set-up time.
func newReadyEngine(ctx context.Context, setupBench string) (*engine.Engine, time.Duration, error) {
	t0 := time.Now()
	e, err := engine.New(engine.Config{Workers: 2})
	if err != nil {
		return nil, 0, err
	}
	if _, err := e.Optimize(ctx, engine.OptimizeRequest{Bench: setupBench, Ratio: 1.5}); err != nil {
		return nil, 0, fmt.Errorf("set-up probe: %w", err)
	}
	return e, time.Since(t0), nil
}

// childMain is one measured in-process call in a fresh process, so
// that its set-up is cold and its peak memory is its own.
func childMain(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var in childInput
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	ctx := context.Background()
	var out childOutput
	var e *engine.Engine
	for i := 0; i <= setupProbes; i++ {
		var d time.Duration
		if e, d, err = newReadyEngine(ctx, in.Setup); err != nil {
			return err
		}
		out.SetupS = append(out.SetupS, d.Seconds())
	}
	before := e.MetricsSnapshot()
	cpu0 := cpuTime()
	t0 := time.Now()
	var res any
	if in.Suite {
		r, err := e.Suite(ctx, engine.SuiteRequest{Benches: in.Benches, Ratios: ratios, Leakage: in.Leakage})
		if err != nil {
			return err
		}
		out.WallS = time.Since(t0).Seconds()
		out.CPUS = cpuTime() - cpu0
		res = r
		for _, row := range r.Rows {
			t := task{Circuit: row.Circuit, Tc: row.Tc, Tmin: row.Tmin, Delay: row.Delay, Area: row.Area,
				Feasible: row.Feasible, Rounds: row.Rounds, Buffers: row.Buffers}
			if row.Leakage != nil {
				t.PowerUW = row.Leakage.TotalUW
			}
			out.Tasks = append(out.Tasks, t)
		}
	} else {
		r, err := e.Optimize(ctx, engine.OptimizeRequest{Bench: in.Benches[0], Ratio: in.Ratio, Leakage: in.Leakage})
		if err != nil {
			return err
		}
		out.WallS = time.Since(t0).Seconds()
		out.CPUS = cpuTime() - cpu0
		w := engine.WireOptimize(r)
		res = w
		out.Tasks = append(out.Tasks, wireTask(w))
	}
	if out.Raw, err = json.Marshal(res); err != nil {
		return err
	}
	// The engine's counters, less the set-up probe's share.
	out.Snap = map[string]float64{}
	for k, v := range e.MetricsSnapshot() {
		out.Snap[k] = v - before[k]
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// cpuTime returns the user plus system CPU time this process has used
// so far, in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// wireTask reads the task summary off an optimize result.
func wireTask(w engine.OptimizeWire) task {
	t := task{Circuit: w.Circuit, Tc: w.Tc, Tmin: w.Tmin, Delay: w.Delay, Area: w.Area,
		Feasible: w.Feasible, Rounds: w.Rounds, Buffers: w.Buffers}
	if w.Leakage != nil {
		t.PowerUW = w.Leakage.TotalAfterUW
	}
	return t
}

// inprocInput builds the workload's child input from the seed.
func inprocInput(cfg *config) (*childInput, error) {
	setup, err := c17Text(cfg.seed)
	if err != nil {
		return nil, err
	}
	in := &childInput{Setup: setup}
	switch cfg.workload {
	case "suite":
		in.Suite = true
		in.Benches, err = suiteTexts(cfg.seed)
	case "large":
		in.Ratio = largeRatio
		var t string
		t, err = mixText(cfg.seed, largeGates)
		in.Benches = []string{t}
	case "leakage":
		in.Ratio, in.Leakage = leakageRatio, true
		var t string
		t, err = mixText(cfg.seed, leakageGates)
		in.Benches = []string{t}
	}
	return in, err
}

// expectedTasks is the number of tasks one call of the workload yields.
func expectedTasks(in *childInput) int {
	if in.Suite {
		return len(in.Benches) * len(ratios)
	}
	return 1
}

// writeInput stores the child input in the run's scratch directory.
func writeInput(cfg *config, in *childInput) (string, error) {
	data, err := json.Marshal(in)
	if err != nil {
		return "", err
	}
	path := filepath.Join(cfg.work, "input.json")
	return path, os.WriteFile(path, data, 0o644)
}

// runChild execs one child run and returns its output and peak RSS.
func runChild(inputPath string) (*childOutput, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(self, "-child", inputPath)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the harness
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child: %v: %s", err, stderr.String())
	}
	var out childOutput
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, 0, fmt.Errorf("child output: %w", err)
	}
	return &out, peakRSSMB(cmd.ProcessState), nil
}

// minIterations is the least number of cold calls an in-process run
// makes, however long they take: the median of three damps the host's
// noise on the 8–10 s calls of the large and suite workloads.
const minIterations = 3

// runInproc drives the suite, large and leakage workloads: each
// iteration is one cold engine call in a fresh child process.
func runInproc(cfg *config, rep *report) error {
	in, err := inprocInput(cfg)
	if err != nil {
		return err
	}
	if cfg.trace {
		return traceInproc(cfg, rep, in)
	}
	path, err := writeInput(cfg, in)
	if err != nil {
		return err
	}
	var setups, walls, cpus, rss []float64
	var first *childOutput
	dl := newDeadline(cfg.seconds, minIterations)
	for dl.next() {
		t0 := time.Now()
		out, peak, err := runChild(path)
		dl.done(time.Since(t0))
		rep.attempted += expectedTasks(in)
		if err != nil {
			rep.failed += expectedTasks(in)
			rep.check(false, "iteration %d: %v", dl.n, err)
			continue
		}
		setups = append(setups, out.SetupS...)
		walls = append(walls, out.WallS)
		cpus = append(cpus, out.CPUS)
		rss = append(rss, peak)
		if first == nil {
			first = out
			checkTasks(rep, out.Tasks, expectedTasks(in))
		} else {
			rep.check(bytes.Equal(first.Raw, out.Raw), "iteration %d: result differs from the first iteration's", dl.n)
		}
	}
	if first == nil {
		return fmt.Errorf("every iteration failed: %v", rep.problems)
	}
	rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d engine set-ups (engine.New + c17 warm-up)", len(setups)))
	rep.set("cpu_s", median(cpus), "s", fmt.Sprintf("median of %d cold calls' user+system CPU time %.3f", len(cpus), cpus))
	rep.info("wall_s", median(walls), "s", fmt.Sprintf("median of %d cold calls %.3f", len(walls), walls))
	rep.set("peak_rss_mb", median(rss), "MB", fmt.Sprintf("median over %d child processes", len(rss)))
	setQuality(rep, first.Tasks)
	return nil
}

// checkTasks applies the per-task checks: the expected task count and
// feasible exactly when delay ≤ Tc.
func checkTasks(rep *report, tasks []task, want int) {
	rep.check(len(tasks) == want, "got %d tasks, want %d", len(tasks), want)
	for _, t := range tasks {
		rep.check(t.Feasible == (t.Delay <= t.Tc), "%s at Tc %g: feasible=%v but delay %g",
			t.Circuit, t.Tc, t.Feasible, t.Delay)
		rep.check(t.Tc > 0 && t.Delay > 0 && t.Area > 0, "%s: non-positive Tc, delay or area", t.Circuit)
	}
}

// setQuality records the deterministic quality metrics of a task set.
func setQuality(rep *report, tasks []task) {
	var area, worst, power float64
	feasible := 0
	for _, t := range tasks {
		area += t.Area
		worst = math.Max(worst, t.Delay/t.Tc)
		power += t.PowerUW
		if t.Feasible {
			feasible++
		}
	}
	rep.set("area_um", area, "um", fmt.Sprintf("Σ final area of %d tasks", len(tasks)))
	rep.set("delay_over_tc", worst, "ratio", "max final delay / Tc")
	rep.info("feasible_frac", ratio(float64(feasible), float64(len(tasks))), "fraction", "tasks meeting Tc")
	if power > 0 {
		rep.info("total_power_uw", power, "uW", "dynamic + leakage after Vt assignment")
	}
	rep.info("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "fraction", "failed operations / attempted")
}
