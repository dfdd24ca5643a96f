package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// findRoot walks up from the working directory to the repository root:
// the directory holding cmd/serve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "serve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root (a directory holding cmd/serve) above the working directory")
		}
		dir = parent
	}
}

// buildServe compiles cmd/serve from the tree under test into
// .bench_build/serve and returns the binary's path.
func buildServe(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/serve: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one running cmd/serve process.
type server struct {
	cmd  *exec.Cmd
	addr string // host:port
	log  string // path of the server's log file
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// startServer execs the binary on a free loopback port, logging to the
// file logPath, and waits for the first 200 from /healthz. The returned
// duration runs from exec to that answer: the server's set-up time. The
// log goes to a file rather than a pipe so that nothing in the
// benchmark has to drain it while the window runs.
func startServer(bin string, args []string, logPath string) (*server, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	s := &server{addr: addr, log: logPath, done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	// Poll every 100 µs on a timerfd: Go's timers would make it ~1 ms,
	// a third of the set-up time being measured.
	tick, err := newPacer()
	if err != nil {
		return nil, 0, err
	}
	defer tick.close()
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.done)
	}()
	for time.Since(start) < 30*time.Second {
		resp, err := probe.Get("http://" + s.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("server exited during start-up: %v\n%s", s.err, s.logTail())
		default:
		}
		if err := tick.sleep(100 * time.Microsecond); err != nil {
			s.stop()
			return nil, 0, err
		}
	}
	s.stop()
	return nil, 0, fmt.Errorf("server not healthy after 30s\n%s", s.logTail())
}

// stop sends SIGTERM, waits for a graceful exit (SIGKILL after 15 s), and
// returns once the process has ended. Safe to call more than once.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// cpuTicks returns the server's utime+stime in clock ticks.
func (s *server) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// watchRSS samples the server's resident set (VmRSS, kB) every interval
// until the returned function is called; that function returns the
// samples.
func (s *server) watchRSS(every time.Duration) func() ([]int64, error) {
	stop := make(chan struct{})
	done := make(chan error, 1)
	var samples []int64
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			kb, err := s.statusKB("VmRSS")
			if err != nil {
				done <- err
				return
			}
			samples = append(samples, kb)
			select {
			case <-stop:
				done <- nil
				return
			case <-t.C:
			}
		}
	}()
	return func() ([]int64, error) {
		close(stop)
		err := <-done
		return samples, err
	}
}

// statusKB returns one kB-valued field of the server's /proc/<pid>/status.
func (s *server) statusKB(field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(string(b), field)
}

// scrape reads the server's /metrics exposition, on a connection of its
// own outside the measured window.
func (s *server) scrape() (map[string]float64, error) {
	c := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseExposition(string(b))
}

// ticksPerSecond is Linux's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every architecture Go supports.
const ticksPerSecond = 100

// parseStatCPU returns utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name in field 2 may hold spaces and
// parentheses, so fields are counted from its closing parenthesis.
func parseStatCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so utime (14) and stime (15) are f[11], f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusKB returns a kB-valued field, such as VmHWM or VmRSS, of
// /proc/<pid>/status.
func parseStatusKB(status, field string) (int64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), field+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %s line %q", field, sc.Text())
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("status: no %s line", field)
}

// parseExposition reads Prometheus text exposition into a map from series
// (name plus rendered labels, e.g. `x_sum{route="/v1/whatif"}`) to value.
// Label values may hold spaces, so the value is the text after the last
// space.
func parseExposition(text string) (map[string]float64, error) {
	m := make(map[string]float64)
	for n, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("exposition line %d: no value in %q", n+1, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", n+1, err)
		}
		m[line[:i]] = v
	}
	return m, nil
}

// delta subtracts a before-scrape from an after-scrape, series by series.
func delta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sumSeries adds up every series of one metric name whose labels pass
// keep (nil keeps all).
func sumSeries(m map[string]float64, name string, keep func(labels string) bool) float64 {
	total := 0.0
	for series, v := range m {
		labels, ok := strings.CutPrefix(series, name)
		if !ok || (labels != "" && labels[0] != '{') {
			continue
		}
		if keep == nil || keep(labels) {
			total += v
		}
	}
	return total
}

// logTail returns the end of the server's log, for error reports.
func (s *server) logTail() string {
	b, err := os.ReadFile(s.log)
	if err != nil {
		return err.Error()
	}
	return string(b[max(0, len(b)-4096):])
}
