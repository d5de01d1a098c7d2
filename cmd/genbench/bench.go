// The bench subcommand: run a Go benchmark pattern with -benchmem and
// record the parsed results — ns/op, B/op, allocs/op, and any custom
// b.ReportMetric units — as a BENCH_*.json file. The repository's
// BENCH_engine.json and BENCH_sta.json baselines are generated this
// way, so the capture, the parser, and the file shape stay in one
// place.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// errVet marks a capture aborted because `go vet` rejected the target
// package. main maps it to exit code 3, so bench harnesses can tell a
// lint failure (fix the code, the baseline is meaningless) apart from
// a benchmark failure (exit 1) without parsing stderr.
var errVet = errors.New("go vet failed")

// BenchRecord is the top-level shape of a BENCH_*.json file.
type BenchRecord struct {
	Description string        `json:"description,omitempty"`
	Recorded    string        `json:"recorded"`
	Command     string        `json:"command"`
	Host        BenchHost     `json:"host"`
	Results     []BenchResult `json:"results"`
}

// BenchHost describes the machine the record was captured on, from the
// `go test` header plus the runtime.
type BenchHost struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	Note       string `json:"note,omitempty"`
}

// BenchResult is one parsed benchmark line. AllocsPerOp/BytesPerOp are
// pointers so records of benchmarks run without -benchmem (or captured
// before allocation tracking) stay distinguishable from zero-alloc
// results.
type BenchResult struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func runBenchCapture(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "", "output JSON file (required)")
	pattern := fs.String("pattern", "", "benchmark regexp passed to -bench (required)")
	pkg := fs.String("pkg", ".", "package to benchmark")
	benchtime := fs.String("benchtime", "3x", "value passed to -benchtime")
	count := fs.Int("count", 1, "value passed to -count")
	desc := fs.String("desc", "", "description embedded in the record")
	note := fs.String("note", "", "host note embedded in the record")
	allowSingleCore := fs.Bool("allow-single-core", false, "record anyway on a single-core host (parallel rows will be meaningless)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || *pattern == "" {
		return fmt.Errorf("both -out and -pattern are required")
	}

	// Single-core guard: the suite and wavefront benchmarks exist to
	// show parallel scaling, and a 1-CPU host cannot — every workers/
	// degree row collapses onto the serial number and the baseline
	// silently understates multi-core builds. Refuse unless the caller
	// explicitly owns that trade-off.
	if runtime.NumCPU() == 1 {
		if !*allowSingleCore {
			return fmt.Errorf("refusing to record on a single-core host (NumCPU=1): " +
				"parallel benchmark rows would be meaningless; pass -allow-single-core to record anyway")
		}
		fmt.Fprintln(os.Stderr, "genbench bench: WARNING: recording on a single-core host (NumCPU=1); "+
			"parallelism rows measure scheduling overhead only, not speedup — re-record on a multi-core host")
	}

	// Vet gate: a baseline captured from a tree that fails vet measures
	// code that will not survive review, so fail fast — and distinctly —
	// before burning benchmark time.
	vet := exec.Command("go", "vet", *pkg)
	vet.Stdout = os.Stderr
	vet.Stderr = os.Stderr
	fmt.Fprintln(os.Stderr, "genbench bench: running go vet", *pkg)
	if err := vet.Run(); err != nil {
		return fmt.Errorf("%w on %s: fix or suppress findings before capturing a baseline", errVet, *pkg)
	}

	cmdArgs := []string{"test", *pkg,
		"-run", "XXX",
		"-bench", *pattern,
		"-benchmem",
		"-benchtime", *benchtime,
		"-count", strconv.Itoa(*count),
	}
	cmd := exec.Command("go", cmdArgs...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	fmt.Fprintln(os.Stderr, "genbench bench: running go", strings.Join(cmdArgs, " "))
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go test: %w\n%s", err, buf.String())
	}

	// The recorded command is meant to be copy-pasted into a shell, so
	// the -bench regexp (which routinely contains `|`) must be quoted.
	quoted := append([]string(nil), cmdArgs...)
	for i, a := range quoted {
		if strings.ContainsAny(a, "|() *?$") {
			quoted[i] = "'" + a + "'"
		}
	}
	rec := &BenchRecord{
		Description: *desc,
		Recorded:    time.Now().Format("2006-01-02"),
		Command:     "go " + strings.Join(quoted, " "),
		Host: BenchHost{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
			Note:       *note,
		},
	}
	if err := parseBenchOutput(&buf, rec); err != nil {
		return err
	}
	if len(rec.Results) == 0 {
		return fmt.Errorf("pattern %q matched no benchmarks:\n%s", *pattern, buf.String())
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("recorded %d benchmark results → %s\n", len(rec.Results), *out)
	return nil
}

// parseBenchOutput scans `go test -bench` output: header lines (goos,
// goarch, cpu) feed the host block; each "BenchmarkX-N  iters  v unit
// [v unit]..." line becomes one BenchResult. Repeated names (-count>1)
// are kept as separate entries in run order.
func parseBenchOutput(buf *bytes.Buffer, rec *BenchRecord) error {
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rec.Host.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rec.Host.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rec.Host.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := fields[0]
		// Strip the -GOMAXPROCS suffix go test appends to the name.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkX ... FAIL" shapes
		}
		res := BenchResult{Name: name, Iterations: iters}
		// Remaining fields come in (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return fmt.Errorf("parsing %q: bad value %q", line, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				b := v
				res.BytesPerOp = &b
			case "allocs/op":
				a := v
				res.AllocsPerOp = &a
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[unit] = v
			}
		}
		rec.Results = append(rec.Results, res)
	}
	return sc.Err()
}
