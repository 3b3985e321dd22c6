package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/serenade-server of the checkout that holds this
// benchmark. The binary stays in the build directory between runs, so only
// the first run of a checkout pays for the compile.
func buildServer(ctx context.Context, root, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/serenade-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/serenade-server: %v\n%s", err, out)
	}
	return nil
}

// server is one serenade-server child process on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr *os.File
	exited chan struct{} // closed once the process has been waited for
	hc     *http.Client

	stopOnce sync.Once
	stopErr  error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns the child and returns once /healthz answers; the
// duration is the spawn-to-healthy time. The child gets the default flags
// plus args, and dies with the harness (Pdeathsig) should stop never run.
func startServer(ctx context.Context, bin string, args []string, gomaxprocs int, stderrPath string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	stderr, err := os.Create(stderrPath)
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		stderr.Close()
		return nil, 0, err
	}
	s := &server{
		cmd: cmd, base: "http://" + addr, stderr: stderr,
		exited: make(chan struct{}),
		hc:     &http.Client{Timeout: 2 * time.Second},
	}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	deadline := time.After(10 * time.Second)
	for {
		resp, err := s.hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, 0, fmt.Errorf("server exited before /healthz answered, see %s", stderrPath)
		case <-deadline:
			s.stop()
			return nil, 0, fmt.Errorf("server not healthy after 10s, see %s", stderrPath)
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// alive reports whether the child is still running.
func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// stop sends SIGTERM, waits for the child to drain and exit, kills it if it
// does not, and reports a process that is still there afterwards. Later
// calls return the first call's result.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		defer s.stderr.Close()
		s.hc.CloseIdleConnections()
		if s.alive() {
			s.cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-s.exited:
			case <-time.After(15 * time.Second):
				s.cmd.Process.Kill()
				<-s.exited
				s.stopErr = errors.New("server ignored SIGTERM for 15s and was killed")
				return
			}
		}
		if _, err := os.Stat(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid))); err == nil {
			s.stopErr = fmt.Errorf("server pid %d is still there after wait", s.cmd.Process.Pid)
		}
	})
	return s.stopErr
}

// scrape reads the server's Prometheus exposition.
func (s *server) scrape() (promSample, error) {
	resp, err := s.hc.Get(s.base + "/metrics.prom")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics.prom: status %d", resp.StatusCode)
	}
	return parseProm(string(body)), nil
}

// procSample is the child's CPU and memory as the kernel accounts them.
type procSample struct {
	cpuSeconds float64 // utime + stime
	rssMB      float64 // VmRSS
	hwmMB      float64 // VmHWM, the peak resident set
}

func (s *server) proc() (procSample, error) {
	dir := filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return procSample{}, err
	}
	ticks, err := parseProcStatTicks(string(stat))
	if err != nil {
		return procSample{}, err
	}
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return procSample{}, err
	}
	return procSample{
		cpuSeconds: float64(ticks) / userHZ,
		rssMB:      parseProcStatusKB(string(status), "VmRSS") / 1024,
		hwmMB:      parseProcStatusKB(string(status), "VmHWM") / 1024,
	}, nil
}

// watchCPU reads the child's CPU time now and every cpuSlice from now on,
// until stop is closed, and then hands the readings over.
func (s *server) watchCPU(stop <-chan struct{}) <-chan []cpuPoint {
	out := make(chan []cpuPoint, 1)
	start := time.Now()
	read := func(points []cpuPoint) []cpuPoint {
		if p, err := s.proc(); err == nil {
			points = append(points, cpuPoint{time.Since(start), p.cpuSeconds})
		}
		return points
	}
	points := read(nil)
	go func() {
		tick := time.NewTicker(cpuSlice)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				points = read(points)
			case <-stop:
				out <- points
				return
			}
		}
	}()
	return out
}

// userHZ is the kernel's clock-tick rate as /proc reports it; 100 on Linux.
const userHZ = 100

// parseProcStatTicks returns utime+stime (fields 14 and 15) of a
// /proc/<pid>/stat line. The command (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStatTicks(stat string) (uint64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want 13 or more", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// parseProcStatusKB returns the kB value of one "Key:   123 kB" line of
// /proc/<pid>/status, 0 when the key is missing.
func parseProcStatusKB(status, key string) float64 {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// promSample maps each series of a Prometheus text exposition, labels
// included (`name{k="v"}`), to its value.
type promSample map[string]float64

func parseProm(text string) promSample {
	out := promSample{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
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
	return out
}

// promDelta is the after-minus-before view of two scrapes: counters are read
// as deltas, gauges from the later scrape. A series the server does not
// export (a disabled mechanism) reads 0.
type promDelta struct{ before, after promSample }

func (d promDelta) delta(series string) float64 { return d.after[series] - d.before[series] }
func (d promDelta) gauge(series string) float64 { return d.after[series] }
