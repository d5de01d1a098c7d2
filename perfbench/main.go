// Command perfbench is the repository's end-to-end benchmark: it
// generates seeded .bench inputs, drives them through the engine
// in-process or through a popsd daemon over loopback, checks every
// output, and prints each metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload large --seed 1 --seconds 20 --trace 0
//
// Workloads: suite, large, leakage, service (see README.md). With
// --trace 0 the result holds the end-to-end metrics; --trace 1 runs
// the traced replay instead and reports the per-layer metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates what a run prints.
type report struct {
	correct   bool
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric // the final JSON line's metrics
	notes     map[string]string
	extra     []string // further lines of the human-readable table
}

func newReport() *report {
	return &report{correct: true, metrics: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric of the final JSON line, with a note for the
// human-readable table.
func (r *report) set(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// info adds a line of the human-readable table that the final JSON
// line does not carry.
func (r *report) info(name string, v float64, unit, note string) {
	r.extra = append(r.extra, fmt.Sprintf("  %-26s %16.6g  %-8s %s", name, v, unit, note))
}

// check records a failed correctness check.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.correct = false
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository checkout under test
	work     string // scratch directory of this run
	popsd    string // popsd binary built for this run
}

func main() {
	if len(os.Args) > 2 && os.Args[1] == "-child" {
		if err := childMain(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "suite, large, leakage or service")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measurement time (s)")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout under test")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	workloads := map[string]func(*config, *report) error{
		"suite": runInproc, "large": runInproc, "leakage": runInproc, "service": runService,
	}
	drive, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want suite, large, leakage or service)", cfg.workload)
	}
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return err
	}
	cfg.root = root
	if _, err := os.Stat(filepath.Join(root, "cmd", "popsd")); err != nil {
		return fmt.Errorf("no popsd source under %s: run from the repository root", root)
	}
	base := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	if cfg.work, err = os.MkdirTemp(base, "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.work)

	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, trace)
	host, err := probeHost(&cfg)
	if err != nil {
		return err
	}
	hj, _ := json.Marshal(host)
	fmt.Printf("host: %s\n", hj)

	rep := newReport()
	if err := drive(&cfg, rep); err != nil {
		return err
	}
	return emit(rep)
}

// emit prints the human-readable table and, last, the JSON result.
func emit(rep *report) error {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("metrics (final JSON line):")
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("  %-26s %16.6g  %-8s %s\n", n, m.Value, m.Unit, rep.notes[n])
	}
	if len(rep.extra) > 0 {
		fmt.Println("printed only (not in the JSON line):")
		for _, l := range rep.extra {
			fmt.Println(l)
		}
	}
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	fmt.Printf("checks: correct=%v attempted=%d failed=%d\n", rep.correct, rep.attempted, rep.failed)
	if rep.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	out, err := json.Marshal(map[string]any{
		"correct":   rep.correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   rep.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// hostInfo identifies what was measured: the revision popsd reports
// for the tree under test, and the machine.
type hostInfo struct {
	Revision   string `json:"revision"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

// probeHost builds popsd from the checkout into the run's scratch
// directory (every run, so no stale binary is measured), starts it
// once and reads its /healthz build information.
func probeHost(cfg *config) (hostInfo, error) {
	bin, err := buildPopsd(cfg.root, cfg.work)
	if err != nil {
		return hostInfo{}, err
	}
	cfg.popsd = bin
	d, err := startPopsd(bin, "")
	if err != nil {
		return hostInfo{}, err
	}
	h, herr := d.health()
	if _, err := d.stop(); err != nil {
		return hostInfo{}, err
	}
	if herr != nil {
		return hostInfo{}, herr
	}
	return hostInfo{
		Revision:   h.Revision,
		GoVersion:  h.GoVersion,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: h.GOMAXPROCS,
		CPUModel:   cpuModel(),
	}, nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// deadline tells a time-bound loop whether another iteration fits:
// at least min iterations run, then one more starts only when the last
// one's duration still fits in the remaining time.
type deadline struct {
	start time.Time
	limit time.Duration
	min   int
	n     int
	last  time.Duration
}

func newDeadline(seconds float64, min int) *deadline {
	return &deadline{start: time.Now(), limit: time.Duration(seconds * float64(time.Second)), min: min}
}

// next reports whether to run another iteration, given the duration of
// the previous one.
func (d *deadline) next() bool {
	if d.n < d.min {
		d.n++
		return true
	}
	if time.Since(d.start)+d.last > d.limit {
		return false
	}
	d.n++
	return true
}

// done records the duration of the iteration just finished.
func (d *deadline) done(took time.Duration) { d.last = took }
