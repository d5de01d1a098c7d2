package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildPopsd compiles cmd/popsd of the checkout at root into dir.
func buildPopsd(root, dir string) (string, error) {
	bin := filepath.Join(dir, "popsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/popsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build popsd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running popsd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	logged chan struct{} // closed once stderr is fully drained
	setup  time.Duration // exec until /healthz first answered 200
	client *http.Client
}

// startPopsd execs popsd on an ephemeral loopback port (with a data
// directory when dataDir is set) and returns once /healthz answers.
// The set-up time runs from exec to that first answer.
func startPopsd(bin, dataDir string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-workers", "2", "-log-format", "json"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the harness
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start popsd: %w", err)
	}
	d := &daemon{cmd: cmd, logged: make(chan struct{}), client: &http.Client{
		Timeout:   120 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}}
	// The daemon logs its bound address; every later line is drained so
	// the pipe never blocks it.
	addr := make(chan string, 1)
	go func() {
		defer close(d.logged)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			if sent {
				continue
			}
			var line struct{ Msg, Addr string }
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "listening" {
				addr <- line.Addr
				sent = true
			}
		}
		io.Copy(io.Discard, stderr)
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.kill()
			return nil, errors.New("popsd exited before listening")
		}
		d.base = "http://" + a
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("popsd did not start listening within 60 s")
	}
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 60*time.Second {
			d.kill()
			return nil, errors.New("popsd /healthz did not answer within 60 s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.setup = time.Since(t0)
	return d, nil
}

// kill stops the daemon without a drain (start-up failures only).
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	<-d.logged
}

// stop shuts the daemon down gracefully (SIGTERM: drain, flush the
// store) and returns its peak resident memory in MB.
func (d *daemon) stop() (float64, error) {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		err = <-done
		if err == nil {
			err = errors.New("popsd did not drain within 60 s")
		}
	}
	<-d.logged
	if err != nil {
		return 0, fmt.Errorf("popsd exit: %w", err)
	}
	return peakRSSMB(d.cmd.ProcessState), nil
}

// peakRSSMB reads a finished process's peak resident set size.
func peakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// healthz is the part of /healthz the benchmark records.
type healthz struct {
	Revision   string `json:"revision"`
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func (d *daemon) health() (healthz, error) {
	var h healthz
	resp, err := d.client.Get(d.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// optimize posts one waited /v1/optimize request and returns the HTTP
// status and the raw "result" of the job record.
func (d *daemon) optimize(u unit) (int, json.RawMessage, error) {
	body, err := json.Marshal(map[string]any{"bench": u.Bench, "ratio": u.Ratio, "wait": true})
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Post(d.base+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var job struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, job.Result, nil
}

// metrics scrapes /metrics into a name{labels} → value map.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
