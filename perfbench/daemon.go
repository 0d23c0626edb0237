package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one mcmd process on a loopback port. Every run launches its own,
// and stop or kill always waits for the process to exit.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	output bytes.Buffer  // stdout and stderr; read only after exited is closed
	exited chan struct{} // closed once cmd.Wait has returned
	err    error         // cmd.Wait's result, read after exited
}

// startDaemon launches mcmd with two workers and otherwise default settings
// on a free loopback port, and waits until /healthz answers.
func startDaemon(bin string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		d := &daemon{addr: addr, exited: make(chan struct{})}
		d.cmd = exec.Command(bin, "-addr", addr, "-workers", "2")
		d.cmd.Stdout = &d.output
		d.cmd.Stderr = &d.output
		// The daemon dies with the benchmark even if the benchmark is killed.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start mcmd: %w", err)
		}
		go func() {
			d.err = d.cmd.Wait()
			close(d.exited)
		}()
		if lastErr = d.waitHealthy(20 * time.Second); lastErr == nil {
			return d, nil
		}
		d.kill()
	}
	return nil, lastErr
}

// freeAddr asks the kernel for a free loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("find a free port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// waitHealthy polls /healthz every millisecond until it answers 200.
func (d *daemon) waitHealthy(timeout time.Duration) error {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("mcmd exited before it was healthy: %v: %s", d.err, d.output.String())
		default:
		}
		if resp, err := client.Get(d.url("/healthz")); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("mcmd not healthy after %v", timeout)
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and the
// "drained clean" line. A daemon that does not exit in time is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal mcmd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("mcmd did not exit within 30s of SIGTERM; killed")
	}
	if d.err != nil {
		return fmt.Errorf("mcmd exit after SIGTERM: %v: %s", d.err, d.output.String())
	}
	if !strings.Contains(d.output.String(), "drained clean") {
		return fmt.Errorf("mcmd exited without draining clean: %s", d.output.String())
	}
	return nil
}

// kill ends the process hard if it is still running and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // fails only if it already exited, which the wait covers
	<-d.exited
}

// cpuMillis is the daemon's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpuMillis() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks of 10 ms.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", rest)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(utime+stime) * 10, nil
}

// procStatus reads one "Key:" line of /proc/<pid>/status.
func (d *daemon) procStatus(key string) (string, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == key {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("no %s in /proc status", key)
}

// peakRSSMiB is the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMiB() (float64, error) {
	v, err := d.procStatus("VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
	}
	return kb / 1024, nil
}

// debugVars is the part of mcmd's /debug/vars the benchmark reads.
type debugVars struct {
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
		Merges int64 `json:"singleflight_merges"`
	} `json:"cache"`
	Solver struct {
		SessionHits   int64 `json:"cache_hits"`
		SessionMisses int64 `json:"cache_misses"`
	} `json:"solver"`
}

func (d *daemon) vars() (debugVars, error) {
	var v debugVars
	resp, err := http.Get(d.url("/debug/vars"))
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("/debug/vars: status %d", resp.StatusCode)
	}
	return v, json.NewDecoder(resp.Body).Decode(&v)
}

// share is a/(a+b), 0 when both are 0.
func share(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}
