package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one ahs-serve subprocess at production defaults, bound to
// a free loopback port. Its log goes to a file, so the benchmark never
// wakes up per access-log line while the server is measured.
type serverProc struct {
	cmd     *exec.Cmd
	logPath string
	base    string        // http://127.0.0.1:port
	setup   time.Duration // exec to the first 200 from /healthz
	done    chan struct{} // closed when the process has exited
	err     error         // Wait's result, valid after done
}

// startServer execs the binary on a free loopback port with args and polls
// /healthz until it answers 200. The set-up time runs from exec to that
// first 200.
func startServer(bin, logPath string, args []string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// A benchmark killed outright must not leave its server behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &serverProc{cmd: cmd, logPath: logPath, base: "http://" + addr, done: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ahs-serve: %w", err)
	}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := t0.Add(30 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(t0)
				return s, nil
			}
		}
		select {
		case <-s.done:
			return nil, fmt.Errorf("ahs-serve exited before serving: %v\n%s", s.err, s.logText())
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("ahs-serve /healthz not ready within 30s: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func (s *serverProc) logText() string {
	b, _ := os.ReadFile(s.logPath)
	return string(b)
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MiB.
func (s *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// cpuSeconds reads the process's user plus system CPU time across all its
// threads, from /proc/<pid>/stat (clock ticks of 1/100 s).
func (s *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	var ticks float64
	for _, field := range f[11:13] {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return ticks / 100, nil
}

// stop sends SIGTERM and waits for the drain. A drain that is not clean —
// a non-zero exit, no "drained cleanly" log line, or no exit within the
// grace period — is an error.
func (s *serverProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal ahs-serve: %w", err)
	}
	select {
	case <-s.done:
	case <-time.After(90 * time.Second):
		s.kill()
		return errors.New("ahs-serve did not exit within 90s of SIGTERM")
	}
	if s.err != nil {
		return fmt.Errorf("ahs-serve exited uncleanly: %v\n%s", s.err, s.logText())
	}
	if !strings.Contains(s.logText(), "drained cleanly") {
		return fmt.Errorf("ahs-serve drain not clean:\n%s", s.logText())
	}
	return nil
}

// kill ends the process without a drain and waits for it.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
}
