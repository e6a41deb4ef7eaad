package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is the benchmark's scratch area inside the checkout: the
// snakestore binary, per-run work directories and default outputs all live
// under it, and .gitignore names it.
const buildDir = ".bench_build"

// sandbox owns everything a run leaves on the machine: a work directory
// and the processes started in it. close removes the one and reaps the
// others, whatever state the run ended in.
type sandbox struct {
	root string // repository root (the directory of go.mod "module repro")
	dir  string // this run's work directory
	bin  string // the snakestore binary under test

	mu    sync.Mutex
	procs []*daemon
}

// findRoot walks up from the working directory to the go.mod of module
// repro: the benchmark runs from the checkout root (the driver) or from
// benchmark/ (go run .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if line, _, _ := strings.Cut(string(data), "\n"); strings.TrimSpace(line) == "module repro" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module repro above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// newSandbox builds ./cmd/snakestore from the checkout's sources and
// creates the run's work directory.
func newSandbox() (*sandbox, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	sb := &sandbox{root: root, bin: filepath.Join(root, buildDir, "bin", "snakestore")}
	build := exec.Command("go", "build", "-o", sb.bin, "./cmd/snakestore")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/snakestore: %v\n%s", err, out)
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, err
	}
	if sb.dir, err = os.MkdirTemp(filepath.Join(root, buildDir), "run-"); err != nil {
		return nil, err
	}
	return sb, nil
}

// close reaps every daemon still running and removes the work directory.
func (sb *sandbox) close() {
	sb.mu.Lock()
	procs := sb.procs
	sb.procs = nil
	sb.mu.Unlock()
	for _, d := range procs {
		d.stop()
	}
	os.RemoveAll(sb.dir)
}

// run executes one snakestore subcommand to completion and returns its
// wall time.
func (sb *sandbox) run(args ...string) (time.Duration, error) {
	cmd := exec.Command(sb.bin, args...)
	cmd.Dir = sb.dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	out, err := cmd.CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("snakestore %s: %v\n%s", args[0], err, out)
	}
	return time.Since(start), nil
}

// daemon is one running `snakestore serve`.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

var servingLine = regexp.MustCompile(`^serving .* on (http://\S+)`)

// serve starts the daemon on an ephemeral port, takes its address from the
// "serving … on http://…" line and waits until /healthz answers 200. The
// returned duration runs from exec to the first healthy probe. The
// daemon's log (one access-log line per request, as shipped) goes to a file
// in the work directory.
func (sb *sandbox) serve(catalog, store string, flags ...string) (*daemon, time.Duration, error) {
	args := append([]string{"serve", "-catalog", catalog, "-store", store, "-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(sb.bin, args...)
	cmd.Dir = sb.dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.OpenFile(filepath.Join(sb.dir, "daemon.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	sb.mu.Lock()
	sb.procs = append(sb.procs, d)
	sb.mu.Unlock()

	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		cmd.Wait()
	}()
	select {
	case d.base = <-addr:
	case <-d.done:
		tail, _ := os.ReadFile(filepath.Join(sb.dir, "daemon.log"))
		return nil, 0, fmt.Errorf("snakestore serve exited before listening:\n%s", lastLines(tail, 5))
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("snakestore serve printed no address within 30s")
	}
	// The probe keeps no connection alive: once the load starts, the only
	// connections to the daemon are the request goroutines' own.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("snakestore serve exited before /healthz answered")
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("/healthz not 200 within 30s")
		}
	}
}

func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// stop drains the daemon: SIGTERM, then SIGKILL if it has not exited
// within 5 s. Safe to call on a daemon that is already gone.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		d.kill()
	}
}

// kill ends the daemon without warning, as a crash would.
func (d *daemon) kill() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
}

// procSample is what /proc says about the daemon at one instant.
type procSample struct {
	cpuSeconds float64 // utime + stime
	hwmMiB     float64 // VmHWM: peak resident set
}

// clockTick is the kernel's USER_HZ, in which /proc/<pid>/stat counts CPU
// time; it is 100 on every Linux platform Go supports.
const clockTick = 100

func readProc(pid int) (procSample, error) {
	var ps procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime fields 14 and 15.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	fields := strings.Fields(string(rest))
	if len(fields) < 13 {
		return ps, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(fields))
	}
	ut, _ := strconv.ParseFloat(fields[11], 64)
	st, _ := strconv.ParseFloat(fields[12], 64)
	ps.cpuSeconds = (ut + st) / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			ps.hwmMiB = kb / 1024
		}
	}
	return ps, nil
}

// selfCPU returns the benchmark process's own user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// scrape is one parsed GET /metrics.
type scrape struct {
	series []series
	took   time.Duration
}

type series struct {
	name   string
	labels string // the text between the braces, or ""
	value  float64
}

// scrapeMetrics fetches and parses the daemon's Prometheus text exposition.
func scrapeMetrics(client *http.Client, base string) (*scrape, error) {
	start := time.Now()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	s := &scrape{took: time.Since(start)}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		key := line[:sp]
		var se series
		if i := strings.IndexByte(key, '{'); i >= 0 {
			se = series{name: key[:i], labels: strings.TrimSuffix(key[i+1:], "}"), value: v}
		} else {
			se = series{name: key, value: v}
		}
		s.series = append(s.series, se)
	}
	return s, nil
}

// sum adds up every series of a family whose label text contains each of
// the given fragments (e.g. `handler="query"`).
func (s *scrape) sum(name string, labelParts ...string) float64 {
	var total float64
next:
	for _, se := range s.series {
		if se.name != name {
			continue
		}
		for _, p := range labelParts {
			if !strings.Contains(se.labels, p) {
				continue next
			}
		}
		total += se.value
	}
	return total
}

// delta is the growth of a counter family between two scrapes.
func delta(before, after *scrape, name string, labelParts ...string) float64 {
	return after.sum(name, labelParts...) - before.sum(name, labelParts...)
}
