package main

// Child processes: the servers under test, started with deployment flags
// only, watched until /healthz answers 200, and stopped (and waited for)
// before the benchmark exits.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

type proc struct {
	name string
	url  string // http://host:port
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, valid after done
	log  *os.File
}

// procSet owns every child process of the run.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

// freeAddr picks an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start launches bin with args; addr is the -addr it was given.  Output
// goes to logPath.
func (ps *procSet) start(name, bin, addr, logPath string, args ...string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	// If the benchmark itself is killed, the kernel kills the children.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{}), log: lf}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()
	return p, nil
}

// stop sends SIGTERM (flixd drains and exits), escalates to SIGKILL after
// a grace period, and waits for the exit.
func (p *proc) stop() {
	select {
	case <-p.done:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exiting if it fails
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill() // exits either way; Wait reports it
			<-p.done
		}
	}
	p.log.Close()
}

func (ps *procSet) stopAll() {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range procs {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
}

// stopSome stops the given processes and forgets them.
func (ps *procSet) stopSome(victims []*proc) {
	ps.mu.Lock()
	keep := ps.procs[:0]
	for _, p := range ps.procs {
		gone := false
		for _, v := range victims {
			gone = gone || v == p
		}
		if !gone {
			keep = append(keep, p)
		}
	}
	ps.procs = keep
	ps.mu.Unlock()
	for _, v := range victims {
		v.stop()
	}
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// the timeout passes.
func waitHealthy(client *http.Client, p *proc, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
		resp, err := client.Do(req)
		if err == nil {
			drain(resp)
			if resp.StatusCode == http.StatusOK {
				cancel()
				return nil
			}
		}
		cancel()
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming healthy: %v (log: %s)", p.name, p.err, p.log.Name())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %s (log: %s)", p.name, timeout, p.log.Name())
		}
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// cpuSeconds reads the user plus system CPU time process pid has used, in
// seconds (at the kernel's usual 100 ticks per second).
func cpuSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / 100
}

// drain discards and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // the body is unwanted either way
	resp.Body.Close()
}
