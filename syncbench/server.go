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

// server is one stacksync-server process listening on fixed loopback ports.
type server struct {
	bin     string
	dataDir string
	logPath string
	broker  string // host:port of the TCP broker
	storage string // host:port of the HTTP storage gateway
	admin   string // host:port of the admin endpoint ("" when not traced)
	pool    int    // SyncService instances, pinned

	cmd  *exec.Cmd
	done chan error
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]string, error) {
	var addrs []string
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

func newServer(bin, dataDir string, pool int, traced bool) (*server, error) {
	ports, err := freePorts(3)
	if err != nil {
		return nil, err
	}
	s := &server{
		bin: bin, dataDir: dataDir, logPath: dataDir + ".log",
		broker: ports[0], storage: ports[1], pool: pool,
	}
	if traced {
		s.admin = ports[2]
	}
	return s, nil
}

// start launches the server creating (or reopening) workspace ws and waits
// until it reports that its service pool is up.
func (s *server) start(ws string) error {
	args := []string{
		"-listen", s.broker,
		"-storage-listen", s.storage,
		"-data", s.dataDir,
		"-workspace", ws,
		"-users", "bench",
		"-min-instances", strconv.Itoa(s.pool),
		"-max-instances", strconv.Itoa(s.pool),
		"-bench-history", filepath.Join(s.dataDir, "no-history.jsonl"),
	}
	if s.admin != "" {
		args = append(args, "-admin", s.admin)
	}
	logf, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(s.bin, args...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("launch server: %w", err)
	}
	s.cmd = cmd
	s.done = make(chan error, 1)
	up := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		signalled := false
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			if !signalled && strings.HasPrefix(sc.Text(), "stacksync-server up") {
				signalled = true
				close(up)
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		s.done <- cmd.Wait()
		logf.Close()
	}()
	select {
	case <-up:
		return nil
	case err := <-s.done:
		s.done <- err
		return fmt.Errorf("server exited during start-up (%v); see %s", err, s.logPath)
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("server not up after 30s; see %s", s.logPath)
	}
}

// stop asks the server to shut down cleanly and waits for it.
func (s *server) stop() error {
	if s.cmd == nil {
		return nil
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.kill()
		return fmt.Errorf("server ignored SIGTERM")
	}
	s.cmd = nil
	return nil
}

// kill is kill -9: no shutdown path runs.
func (s *server) kill() {
	if s.cmd == nil {
		return
	}
	_ = s.cmd.Process.Kill()
	<-s.done
	s.cmd = nil
}

func (s *server) pid() int {
	if s.cmd == nil {
		return 0
	}
	return s.cmd.Process.Pid
}

// cpuTime is utime+stime of a process, from /proc/<pid>/stat.
func cpuTime(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%s/stat", pid)
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// memStat reads one memory field (VmRSS, VmHWM) of a process, in bytes.
func memStat(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseInt(f[1], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("no %s for pid %d", field, pid)
}

// flushDirty writes back every dirty page (sync(2)), so writes left behind
// by earlier set-ups and runs are not written back during this one.
func flushDirty() { syscall.Sync() }

// scrape reads the server's /metrics text exposition into series -> value.
func (s *server) scrape() (map[string]float64, error) {
	if s.admin == "" {
		return nil, nil
	}
	resp, err := http.Get("http://" + s.admin + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
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
	return out, sc.Err()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
