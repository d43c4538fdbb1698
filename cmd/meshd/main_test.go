package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"meshlab/internal/leakcheck"
)

// TestMain fails the package if a test leaves a goroutine running — a
// server, a warm, or a signal watcher that run() started.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestExitCodeContract pins the CLI-wide exit-code mapping: usage
// errors (including flag-parse failures) are 2, everything else 1.
func TestExitCodeContract(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{usagef("bad invocation"), 2},
		{usageError{errors.New("wrapped")}, 2},
		{flag.ErrHelp, 2},
		{errors.New("runtime failure"), 1},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestRunUsageErrors drives run() with bad invocations and checks they
// classify as usage errors without starting a listener.
func TestRunUsageErrors(t *testing.T) {
	var u usageError
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"stray-positional"},
		{"-register", "fleet.bin"}, // a .bin source needs a name
		{"-register", "nameless.bin", "-dir", t.TempDir()},
		{"-register", "no-such-scenario", "-dir", t.TempDir()},
	} {
		err := run(args, io.Discard)
		if err == nil || !errors.As(err, &u) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
	}
}

// TestMeshdBinarySmoke builds the real binary and pins its exit-code
// contract (usage → 2, runtime failure → 1). The full serve/poll/query
// loop runs in the CI smoke job and in internal/meshd's HTTP tests.
func TestMeshdBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary smoke test")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "meshd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// A usage error from the binary must exit 2 (the regression the
	// sibling CLIs also pin).
	cmd := exec.Command(bin, "-no-such-flag")
	if err := cmd.Run(); err == nil {
		t.Fatal("bad flag: expected a non-zero exit")
	} else if ee := new(exec.ExitError); !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("bad flag: %v, want exit 2", err)
	}
	cmd = exec.Command(bin, "-register", "nameless.bin", "-dir", dir)
	if err := cmd.Run(); err == nil {
		t.Fatal("nameless .bin: expected a non-zero exit")
	} else if ee := new(exec.ExitError); !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("nameless .bin: %v, want exit 2", err)
	}

	// A listen failure is a runtime error: exit 1.
	cmd = exec.Command(bin, "-addr", "256.256.256.256:1")
	if err := cmd.Run(); err == nil {
		t.Fatal("bad addr: expected a non-zero exit")
	} else if ee := new(exec.ExitError); !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("bad addr: %v, want exit 1", err)
	}
}
