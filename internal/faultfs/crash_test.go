package faultfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// phaseRun simulates the atomicio + checkpoint phase sequence against a
// real temp file, returning the first hook error and whether the final
// file exists. It mirrors the real write path's ordering: the temp file
// holds content through mid-rename, then renames into place.
func phaseRun(t *testing.T, plan *CrashPlan, dir string, content []byte) (error, bool) {
	t.Helper()
	final := filepath.Join(dir, "out.ckpt")
	tmp := filepath.Join(dir, "out.ckpt.tmp-1")
	if err := os.WriteFile(tmp, content[:len(content)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	phases := []string{"mid-snapshot", "post-temp-write", "pre-rename", "mid-rename", "renamed"}
	for _, phase := range phases {
		path := tmp
		if phase == "renamed" {
			path = final
		}
		if phase == "post-temp-write" {
			// The write callback completed: temp now holds full content.
			if err := os.WriteFile(tmp, content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := plan.Hook(phase, path); err != nil {
			os.Remove(tmp)
			return err, false
		}
		if phase == "mid-rename" {
			if err := os.Rename(tmp, final); err != nil {
				t.Fatal(err)
			}
		}
	}
	return nil, true
}

func TestCrashPlanKillsAtEachPhase(t *testing.T) {
	content := []byte("checkpoint file bytes")
	for _, phase := range []string{"mid-snapshot", "post-temp-write", "pre-rename"} {
		t.Run(phase, func(t *testing.T) {
			dir := t.TempDir()
			plan := &CrashPlan{KillAt: phase}
			err, renamed := phaseRun(t, plan, dir, content)
			if !errors.Is(err, ErrKilled) {
				t.Fatalf("err = %v, want ErrKilled", err)
			}
			if renamed {
				t.Fatal("kill before rename must not produce the final file")
			}
			if !plan.Fired() {
				t.Fatal("plan did not record the kill")
			}
			if _, err := os.Stat(filepath.Join(dir, "out.ckpt")); !os.IsNotExist(err) {
				t.Fatal("final file exists after pre-rename kill")
			}
		})
	}
}

// TestCrashPlanMidRenameTearsThenKills: the mid-rename kill corrupts the
// temp, lets the rename land, and kills at "renamed" — so the visible
// final file exists but is damaged, the exact torn-checkpoint scenario
// the CRC layer must catch.
func TestCrashPlanMidRenameTearsThenKills(t *testing.T) {
	content := []byte("checkpoint file bytes")
	t.Run("truncate", func(t *testing.T) {
		dir := t.TempDir()
		plan := &CrashPlan{KillAt: "mid-rename", Torn: 5}
		err, _ := phaseRun(t, plan, dir, content)
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("err = %v, want ErrKilled", err)
		}
		got, readErr := os.ReadFile(filepath.Join(dir, "out.ckpt"))
		if readErr != nil {
			t.Fatalf("torn final file missing: %v", readErr)
		}
		if want := content[:len(content)-5]; !bytes.Equal(got, want) {
			t.Fatalf("torn file = %q, want %q", got, want)
		}
	})
	t.Run("xor", func(t *testing.T) {
		dir := t.TempDir()
		plan := &CrashPlan{KillAt: "mid-rename", TornXOR: 0x80}
		err, _ := phaseRun(t, plan, dir, content)
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("err = %v, want ErrKilled", err)
		}
		got, readErr := os.ReadFile(filepath.Join(dir, "out.ckpt"))
		if readErr != nil {
			t.Fatal(readErr)
		}
		if len(got) != len(content) || got[len(got)-1] != content[len(content)-1]^0x80 {
			t.Fatalf("bit-rot tear not applied: %q", got)
		}
	})
}

// TestCrashPlanMidRenameKillsTheTornWriter: with parallel writers, a
// rename by another writer between the tear and the torn file's own
// rename must not take the kill, or the torn writer would carry on and
// supersede its torn generation.
func TestCrashPlanMidRenameKillsTheTornWriter(t *testing.T) {
	dir := t.TempDir()
	torn, tornTmp := filepath.Join(dir, "shard000.ckpt"), filepath.Join(dir, "shard000.ckpt.tmp-7")
	other := filepath.Join(dir, "shard001.ckpt")
	if err := os.WriteFile(tornTmp, []byte("checkpoint file bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	plan := &CrashPlan{KillAt: "mid-rename", Torn: 3}
	if err := plan.Hook("mid-rename", tornTmp); err != nil {
		t.Fatalf("tear: %v", err)
	}
	if err := plan.Hook("renamed", other); err != nil || plan.Fired() {
		t.Fatalf("another writer's rename took the kill: %v", err)
	}
	if err := plan.Hook("renamed", torn); !errors.Is(err, ErrKilled) {
		t.Fatalf("torn writer's rename: err = %v, want ErrKilled", err)
	}
}

func TestCrashPlanSkipTargetsLaterWrite(t *testing.T) {
	content := []byte("checkpoint file bytes")
	dir := t.TempDir()
	plan := &CrashPlan{KillAt: "pre-rename", Skip: 2}
	for i := 0; i < 2; i++ {
		if err, ok := phaseRun(t, plan, t.TempDir(), content); err != nil || !ok {
			t.Fatalf("write %d should survive (skip): %v", i, err)
		}
	}
	err, _ := phaseRun(t, plan, dir, content)
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("third write: err = %v, want ErrKilled", err)
	}
}

func TestCrashPlanFiresOnceAndZeroValueInert(t *testing.T) {
	content := []byte("x")
	plan := &CrashPlan{KillAt: "pre-rename"}
	if err, _ := phaseRun(t, plan, t.TempDir(), content); !errors.Is(err, ErrKilled) {
		t.Fatalf("first run: %v", err)
	}
	// After firing, the plan is inert — the resumed process runs clean.
	if err, ok := phaseRun(t, plan, t.TempDir(), content); err != nil || !ok {
		t.Fatalf("post-fire run: %v", err)
	}
	var inert CrashPlan
	if err, ok := phaseRun(t, &inert, t.TempDir(), content); err != nil || !ok {
		t.Fatalf("zero-value plan: %v", err)
	}
	if inert.Fired() {
		t.Fatal("zero-value plan claims to have fired")
	}
}

// TestStallShortReadReopenInteraction pins how the read-side faults
// compose: a stall and a short read covering the same range both apply
// (delay first, then the legal partial), the short read burns out after
// its count, and a re-open through the same injector keeps the stall
// budget shared rather than resetting it.
func TestStallShortReadReopenInteraction(t *testing.T) {
	src := data(64)
	in := New(
		Fault{Kind: Stall, Offset: 16, Count: 2, Delay: 20 * time.Millisecond},
		Fault{Kind: ShortRead, Offset: 16, Count: 1},
	)

	f := open(in, src)
	buf := make([]byte, 32)
	start := time.Now()
	n, err := f.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 16 {
		t.Fatalf("short read returned %d bytes, want 16", n)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("stall not applied alongside short read (%v)", elapsed)
	}
	if !bytes.Equal(buf[:n], src[:16]) {
		t.Fatal("partial read corrupted")
	}

	// Re-open: the short read is burnt out, the stall has one firing
	// left; the full range now arrives in one read, delayed once.
	f2 := open(in, src)
	start = time.Now()
	got, err := io.ReadAll(f2)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("re-open read: %v, %d bytes", err, len(got))
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("shared stall budget did not apply on re-open (%v)", elapsed)
	}
	if in.Fired(0) != 2 || in.Fired(1) != 1 {
		t.Fatalf("fired = (%d, %d), want (2, 1)", in.Fired(0), in.Fired(1))
	}

	// Budgets spent: a third open reads clean and fast.
	start = time.Now()
	got, err = io.ReadAll(open(in, src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("post-burn-down read: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Millisecond {
		t.Fatalf("burnt-out stall still delaying (%v)", elapsed)
	}
}
