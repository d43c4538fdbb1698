package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The programs under test, built from the checkout by buildCLIs.
const (
	cmdMeshgen     = "meshgen"
	cmdMeshreport  = "meshreport"
	cmdMeshanalyze = "meshanalyze"
	cmdMeshd       = "meshd"
)

// buildCLIs compiles the four programs of the tree at root into bin.
func buildCLIs(ctx context.Context, root, bin string) error {
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, p := range []string{cmdMeshgen, cmdMeshreport, cmdMeshanalyze, cmdMeshd} {
		args = append(args, "./cmd/"+p)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// childAttr makes the kernel kill a child if this process dies first, so
// an interrupted benchmark leaves no program under test running.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// procRun is one finished CLI invocation.
type procRun struct {
	wall   time.Duration
	rssMB  float64 // getrusage max RSS of the child
	stdout []byte
}

// runCLI runs a program under test to completion and measures its wall
// time and peak memory. A non-zero exit is an error carrying the tail of
// its stderr.
func runCLI(ctx context.Context, path string, args ...string) (procRun, error) {
	cmd := exec.CommandContext(ctx, path, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = childAttr()
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return procRun{}, fmt.Errorf("%s %s: %w: %s", filepath.Base(path), strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return procRun{}, fmt.Errorf("%s: no rusage", filepath.Base(path))
	}
	return procRun{wall: wall, rssMB: float64(ru.Maxrss) / 1024, stdout: stdout.Bytes()}, nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// daemon is a running meshd child.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	done   chan struct{} // closed once the child has exited
	err    error         // the child's exit status, valid after done
	stdout chan struct{} // closed once the stdout reader has returned
	stderr bytes.Buffer
}

// startMeshd launches meshd on an ephemeral loopback port with the given
// startup registrations and returns once it serves HTTP.
func startMeshd(ctx context.Context, path string, args ...string) (*daemon, error) {
	d := &daemon{done: make(chan struct{}), stdout: make(chan struct{})}
	d.cmd = exec.Command(path, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	d.cmd.Stderr = &d.stderr
	d.cmd.SysProcAttr = childAttr()
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.stdout)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "meshd: serving on "); ok {
				addr <- a
			}
		}
	}()
	go func() {
		<-d.stdout // Wait closes the pipe, so it must follow the reader
		d.err = d.cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.base = a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("meshd exited before serving: %v: %s", d.err, lastLine(d.stderr.String()))
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	case <-time.After(time.Minute):
		d.stop()
		return nil, errors.New("meshd did not start serving within a minute")
	}
}

// peakRSSMB reads the child's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM and waits for meshd to drain and exit; a child that
// outlives its drain budget is killed. Only a clean exit 0 returns nil.
// stop is safe to call more than once.
func (d *daemon) stop() error {
	select {
	case <-d.done:
		return d.exitErr()
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited child is reaped below
	select {
	case <-d.done:
	case <-time.After(45 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("meshd did not exit within 45s of SIGTERM; killed")
	}
	return d.exitErr()
}

func (d *daemon) exitErr() error {
	if d.err != nil {
		return fmt.Errorf("meshd: %w: %s", d.err, lastLine(d.stderr.String()))
	}
	return nil
}
