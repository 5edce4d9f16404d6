package main

// This file runs rtserve as a child process: spawn, readiness, stats and
// peak memory, and a stop that waits for the process to exit.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

// server is one running rtserve child.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan struct{} // closed once the child has exited
}

// startServer spawns bin listening on a free loopback port, with -store
// on storeDir when it is not empty, and waits until /healthz answers.
func startServer(bin, logPath, storeDir string, procs int) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{"-addr", addr}
	if storeDir != "" {
		args = append(args, "-store", storeDir)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start rtserve: %w", err)
	}
	s := &server{cmd: cmd, addr: addr, log: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(s.done)
	}()
	if err := s.waitReady(10 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// waitReady polls /healthz on fresh connections until it answers 200.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("rtserve exited during start-up (see %s)", s.log.Name())
		default:
		}
		resp, err := client.Get("http://" + s.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("rtserve not ready after %v", timeout)
}

// stats fetches GET /v1/stats.
func (s *server) stats() (service.StatsResponse, error) {
	var st service.StatsResponse
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + s.addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// peakRSSMB reads the child's VmHWM from /proc.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// stop sends SIGTERM, escalates to SIGKILL after five seconds, and
// returns once the child has exited.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}
