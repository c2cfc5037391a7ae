package main

import (
	"bytes"
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

// buildDir is where binaries, state dirs, server logs and the Go build
// cache live: inside the checkout, ignored by git.
const buildDir = ".bench_build"

// toolEnv pins the Go tool environment of child processes into the
// checkout, so a run reads and writes nothing outside it.
func toolEnv() []string {
	abs, err := filepath.Abs(buildDir)
	if err != nil {
		abs = buildDir
	}
	return append(os.Environ(),
		"GOCACHE="+filepath.Join(abs, "gocache"),
		"GOPATH="+filepath.Join(abs, "gopath"),
		"GOTOOLCHAIN=local",
		"XDG_CONFIG_HOME="+filepath.Join(abs, "config"),
	)
}

// buildServer compiles cmd/streamadd into buildDir, before any clock
// starts. go build is a no-op when the cache is warm.
func buildServer() (string, error) {
	bin := filepath.Join(buildDir, "bin", "streamadd")
	// With telemetry in its default mode a go command leaves a detached
	// uploader child behind; no run may leave a process running.
	tdir := filepath.Join(buildDir, "config", "go", "telemetry")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(tdir, "mode"), []byte("off\n"), 0o644); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/streamadd")
	cmd.Env = toolEnv()
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/streamadd: %v\n%s", err, out)
	}
	return bin, nil
}

// target is a server under test: a streamadd process here, the same
// handler in-process in the tests.
type target interface {
	// dial opens connection c to the server.
	dial(c int) *conn
	// stop shuts the server down gracefully (final checkpoint) and
	// returns how long that took; kill is the error-path teardown.
	stop() (time.Duration, error)
	kill()
	// sample reads the server from outside.
	sample() procSample
}

// launcher starts a server for the workload on a state dir and returns
// once it is restored and healthy.
type launcher func(wl *workload, stateDir string) (target, error)

// procSample is what /proc and /metrics say about the server.
type procSample struct {
	cpuSeconds   float64 // utime+stime so far
	hwmKB, rssKB float64
	fds          int
	metrics      string // /metrics text
}

// serverProc is one running streamadd.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *os.File
	exited chan error // receives cmd.Wait's result once
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs streamadd for the workload on stateDir and returns
// once /healthz answers. streamadd restores every persisted stream
// before it listens, so a healthy server is a restored server.
//
//streamad:lifecycle — the waiter goroutine ends when the process does; stop and kill both join it.
func startServer(bin string, wl *workload, stateDir string) (target, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(stateDir+".log", os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, wl.serverArgs(addr, stateDir)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(pinnedProcs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan error, 1)}
	go func() { p.exited <- cmd.Wait() }()
	if err := p.waitHealthy(60 * time.Second); err != nil {
		p.kill()
		return nil, fmt.Errorf("%v\n%s", err, p.logTail())
	}
	return p, nil
}

func (p *serverProc) dial(int) *conn { return newConn(p.base) }

func (p *serverProc) sample() procSample {
	var s procSample
	s.cpuSeconds, _ = p.cpuSeconds()
	s.hwmKB, _ = p.statusKB("VmHWM")
	s.rssKB, _ = p.statusKB("VmRSS")
	s.fds = p.openFDs()
	s.metrics, _ = p.scrape()
	return s
}

// waitHealthy polls /healthz every 2 ms: a coarser poll would put its
// own period into setup_s.
func (p *serverProc) waitHealthy(timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
		}
		select {
		case err := <-p.exited:
			p.exited <- err // kill still joins
			return fmt.Errorf("streamadd exited before it was healthy: %v", err)
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("streamadd on %s did not become healthy", p.base)
}

// stop sends SIGTERM and waits for the final checkpoint and exit; it
// returns how long that took.
func (p *serverProc) stop() (time.Duration, error) {
	start := time.Now()
	defer p.log.Close()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	if err := <-p.exited; err != nil {
		return 0, fmt.Errorf("streamadd exit: %v\n%s", err, p.logTail())
	}
	return time.Since(start), nil
}

// kill is the error-path teardown.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
	p.log.Close()
}

// logTail returns the end of the server's log for error reports.
func (p *serverProc) logTail() string {
	raw, err := os.ReadFile(p.log.Name())
	if err != nil {
		return ""
	}
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return string(raw)
}

// clockTick is the kernel's USER_HZ; it is 100 on every Linux Go targets.
const clockTick = 100

// cpuSeconds reads utime+stime of the server from /proc/<pid>/stat.
func (p *serverProc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised comm; utime and stime are the 14th
	// and 15th fields overall, 12th and 13th after the ") ".
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	return (ut + st) / clockTick, nil
}

// statusKB reads one "Vm…: N kB" line of /proc/<pid>/status.
func (p *serverProc) statusKB(key string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, key+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				return strconv.ParseFloat(f[1], 64)
			}
		}
	}
	return 0, fmt.Errorf("%s not in /proc status", key)
}

// openFDs counts the server's open file descriptors.
func (p *serverProc) openFDs() int {
	ents, err := os.ReadDir(fmt.Sprintf("/proc/%d/fd", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	return len(ents)
}

// scrape fetches /metrics.
func (p *serverProc) scrape() (string, error) {
	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return string(raw), err
}

// metricValue returns the value of the first /metrics sample whose name
// and label set start with prefix (e.g. `streamad_tier_transitions_total{from="hot",to="warm"}`).
func metricValue(text, prefix string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			rest := strings.TrimSpace(line[len(prefix):])
			if i := strings.LastIndexByte(rest, ' '); i >= 0 {
				rest = rest[i+1:]
			}
			if v, err := strconv.ParseFloat(rest, 64); err == nil {
				return v
			}
		}
	}
	return 0
}

// dirBytes sums the regular files of a directory.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// fsType names the filesystem holding path from its statfs magic.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
