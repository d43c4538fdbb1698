package main

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildMeshd compiles the programs under test from this tree.
func buildMeshd(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	if err := buildCLIs(context.Background(), filepath.Join("..", ".."), bin); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(bin, cmdMeshd)
}

func TestMeshdChildIsReaped(t *testing.T) {
	path := buildMeshd(t)
	before := runtime.NumGoroutine()
	ctx := context.Background()
	d, err := startMeshd(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(d.base)
	body, _, err := c.get(ctx, "/healthz")
	c.close()
	if err != nil || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %q, %v", body, err)
	}
	pid := d.cmd.Process.Pid
	if err := d.stop(); err != nil {
		t.Fatalf("stop: %v (want a clean exit 0 on SIGTERM)", err)
	}
	if st := d.cmd.ProcessState; st == nil || st.ExitCode() != 0 {
		t.Fatalf("meshd exit state %v, want 0", st)
	}
	if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
		t.Errorf("pid %d still exists after stop (kill 0: %v): the child was not reaped", pid, err)
	}
	if err := d.stop(); err != nil {
		t.Errorf("a second stop = %v, want the same clean exit", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before meshd, %d after it stopped", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMeshdThatFailsToStartIsReaped(t *testing.T) {
	path := buildMeshd(t)
	_, err := startMeshd(context.Background(), path, "-no-such-flag")
	if err == nil || !strings.Contains(err.Error(), "exited before serving") {
		t.Fatalf("start with a bad flag = %v, want an exit before serving", err)
	}
}

func TestRunCLIReportsExitAndRSS(t *testing.T) {
	p, err := runCLI(context.Background(), "/bin/sh", "-c", "echo out; echo err >&2")
	if err != nil || string(p.stdout) != "out\n" || p.rssMB <= 0 || p.wall <= 0 {
		t.Fatalf("runCLI = %+v, %v", p, err)
	}
	_, err = runCLI(context.Background(), "/bin/sh", "-c", "echo why >&2; exit 3")
	if err == nil || !strings.Contains(err.Error(), "why") {
		t.Fatalf("a failing CLI = %v, want its exit error with the stderr tail", err)
	}
}
