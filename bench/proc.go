package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// binaries are the programs under test, built once per run from the
// checkout's own source.
type binaries struct{ refill, serve string }

// findRoot returns the repository root: the working directory when started
// through run.sh, its parent when started with `go run -C bench .`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, d := range []string{dir, filepath.Dir(dir)} {
		if _, err := os.Stat(filepath.Join(d, "cmd", "refill", "main.go")); err == nil {
			return d, nil
		}
	}
	return "", fmt.Errorf("no cmd/refill at or above %s: run from a checkout of the repository", dir)
}

func buildBinaries(root, outDir string) (binaries, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.Command("go", "build", "-o", outDir+string(filepath.Separator), "./cmd/refill", "./cmd/refill-serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build: %w\n%s", err, out)
	}
	return binaries{refill: filepath.Join(outDir, "refill"), serve: filepath.Join(outDir, "refill-serve")}, nil
}

// childUsage is what the kernel accounted to a finished child.
type childUsage struct {
	cpu   time.Duration
	rssMB float64
}

// child starts cmd so that it dies with the benchmark, and watches its peak
// resident set until wait is called. The peak is the child's VmHWM, polled:
// the Maxrss that wait4 reports is no use here, because at exec Linux seeds it
// with the high-water mark of the address space the child was forked from —
// this process's, which holds the campaign and is larger than the child ever
// gets.
type child struct {
	cmd  *exec.Cmd
	stop chan struct{}
	peak chan float64
}

func startChild(cmd *exec.Cmd) (*child, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		status := fmt.Sprintf("/proc/%d/status", cmd.Process.Pid)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		peakKB := 0.0
		for {
			if data, err := os.ReadFile(status); err == nil {
				if i := bytes.Index(data, []byte("VmHWM:")); i >= 0 {
					var kb float64
					fmt.Sscan(string(data[i+len("VmHWM:"):]), &kb)
					peakKB = max(peakKB, kb)
				}
			}
			select {
			case <-c.stop:
				c.peak <- peakKB / 1024
				return
			case <-tick.C:
			}
		}
	}()
	return c, nil
}

// wait reaps the child and returns its CPU time and peak resident set.
func (c *child) wait() (childUsage, error) {
	err := c.cmd.Wait()
	close(c.stop)
	u := childUsage{rssMB: <-c.peak}
	if c.cmd.ProcessState != nil {
		u.cpu = c.cmd.ProcessState.UserTime() + c.cmd.ProcessState.SystemTime()
	}
	return u, err
}

// runRefill runs one refill process to completion: wall time is start of the
// process to its exit with the report on stdout captured.
func runRefill(bin string, args []string) (stdout []byte, wall time.Duration, u childUsage, err error) {
	var out, errb bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	c, err := startChild(cmd)
	if err == nil {
		u, err = c.wait()
	}
	wall = time.Since(start)
	if err != nil {
		return nil, wall, u, fmt.Errorf("refill %v: %w\n%s", args, err, errb.Bytes())
	}
	return out.Bytes(), wall, u, nil
}

// server is a live refill-serve child.
type server struct {
	*child
	base   string
	stderr bytes.Buffer
}

// startServer launches refill-serve on a free loopback port and returns once
// /healthz answers.
func startServer(bin string, args ...string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{base: "http://" + addr}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = &s.stderr
	if s.child, err = startChild(cmd); err != nil {
		return nil, err
	}
	// The probe closes its connection each time, so the replay's two
	// connections are the only ones open under load.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return s, nil
		}
		if time.Now().After(deadline) {
			s.cmd.Process.Kill()
			s.wait()
			return nil, fmt.Errorf("refill-serve did not come up on %s: %v\n%s", addr, err, s.stderr.Bytes())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the server to shut down (SIGTERM: it finishes in-flight
// requests, drains and exits) and waits for it; a server that lingers is
// killed.
func (s *server) stop() (childUsage, error) {
	s.cmd.Process.Signal(syscall.SIGTERM)
	kill := time.AfterFunc(20*time.Second, func() { s.cmd.Process.Kill() })
	u, err := s.wait()
	kill.Stop()
	if err != nil {
		return u, fmt.Errorf("refill-serve: %w\n%s", err, s.stderr.Bytes())
	}
	return u, nil
}
