package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestOpenLoopCountsWaitFromDueTime(t *testing.T) {
	// One worker, an op every millisecond, each taking three: the
	// schedule falls behind by two milliseconds per op, and every op's
	// latency includes the wait for the busy worker.
	const n = 20
	ops := openLoop(context.Background(), 1000, n, 1, func(_, _ int) (time.Time, error) {
		time.Sleep(3 * time.Millisecond)
		return time.Now(), nil
	})
	if len(ops) != n {
		t.Fatalf("sent %d ops, want %d", len(ops), n)
	}
	for k, o := range ops {
		if o.i != k {
			t.Fatalf("op %d is schedule slot %d: ops must come back in schedule order", k, o.i)
		}
		if o.lat < o.late+3*time.Millisecond {
			t.Errorf("op %d: latency %v does not include its lateness %v plus the 3ms it ran", k, o.lat, o.late)
		}
	}
	if last := ops[n-1].late; last < time.Duration(n-1)*2*time.Millisecond {
		t.Errorf("last op %v late, want at least %v: lateness must accumulate", last, time.Duration(n-1)*2*time.Millisecond)
	}
	if sum := summarize(ops); sum.lateP99 < 30*time.Millisecond || sum.sent != n || sum.failed != 0 {
		t.Errorf("summary = %+v, want a late p99 of at least 30ms and %d clean ops", sum, n)
	}
}

func TestOpenLoopKeepsScheduleWhenOpsAreFast(t *testing.T) {
	ops := openLoop(context.Background(), 500, 50, 2, func(_, _ int) (time.Time, error) {
		return time.Now(), nil
	})
	sum := summarize(ops)
	if sum.lateP99 > 20*time.Millisecond {
		t.Errorf("late p99 %v on an idle schedule", sum.lateP99)
	}
}

func TestOpenLoopStopsOnCancelAndCountsFailures(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	ops := openLoop(ctx, 1000, 1<<30, 2, func(_, i int) (time.Time, error) {
		if i == 10 {
			cancel()
		}
		if i%2 == 1 {
			return time.Now(), boom
		}
		return time.Now(), nil
	})
	if len(ops) < 11 || len(ops) > 13 {
		t.Fatalf("sent %d ops, want the schedule to stop right after op 10", len(ops))
	}
	sum := summarize(ops)
	if sum.failed != (len(ops))/2 || !errors.Is(sum.firstErr, boom) || sum.sloMiss != sum.failed {
		t.Errorf("summary = %+v, want every odd op failed and counted as an SLO miss", sum)
	}
}

func TestMixFollowsWeightsAndSeed(t *testing.T) {
	a, b := &target{name: "a"}, &target{name: "b"}
	m := &mix{seed: 7, datasets: []*target{a, b}, ids: []string{"x", "y", "z"}}
	var count [numEndpoints]int
	inm := 0
	const n = 20000
	for i := range n {
		q := m.query(i)
		if q != m.query(i) {
			t.Fatal("a seed must always give the same query")
		}
		if want := []*target{a, b}[i%2]; q.ds != want {
			t.Fatalf("query %d targets %s, want round-robin %s", i, q.ds.name, want.name)
		}
		count[q.ep]++
		if q.inm {
			if q.ep > epExperiment {
				t.Fatalf("query %d revalidates an uncacheable %s", i, endpointNames[q.ep])
			}
			inm++
		}
	}
	for ep, w := range mixWeights {
		if got := float64(count[ep]) / n * 100; got < float64(w)-2 || got > float64(w)+2 {
			t.Errorf("%s is %.1f%% of the mix, want %d%%", endpointNames[ep], got, w)
		}
	}
	cacheable := count[epReport] + count[epSec4] + count[epExperiment]
	if got := float64(inm) / float64(cacheable); got < 0.47 || got > 0.53 {
		t.Errorf("%.2f of cacheable queries revalidate, want half", got)
	}
	if other := (&mix{seed: 8, datasets: m.datasets, ids: m.ids}); other.query(1) == m.query(1) && other.query(2) == m.query(2) && other.query(3) == m.query(3) {
		t.Error("another seed should send other requests")
	}
}

func TestEqualExcept(t *testing.T) {
	a := "# r\n- dataset: x.bin (streamed)\n- experiment wall time: 1.2s\n\nbody\n"
	b := "# r\n- dataset: x.bin (meshd)\n- experiment wall time: 3s\n\nbody\n"
	if !equalExcept([]byte(a), []byte(b), "- dataset:", wallTimeLine) {
		t.Error("reports differing only in the skipped lines must compare equal")
	}
	if equalExcept([]byte(a), []byte(b), wallTimeLine) {
		t.Error("the dataset line differs and is not skipped")
	}
	if equalExcept([]byte(a), []byte(strings.Replace(a, "body", "bodY", 1)), wallTimeLine) {
		t.Error("a changed body line must compare unequal")
	}
	if equalExcept([]byte(a), []byte(a+"more\n"), wallTimeLine) {
		t.Error("an extra line must compare unequal")
	}
}

func TestGeneratorJoinsItsGoroutines(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	before := runtime.NumGoroutine()
	ds := &target{name: "d", etag: `"t"`, report: []byte("ok"), sec4: []byte("ok"), experiments: [][]byte{[]byte("ok")}, networks: []byte("ok"), expList: []byte("ok")}
	c := newClient(srv.URL)
	ops := c.run(context.Background(), &mix{seed: 1, datasets: []*target{ds}, ids: []string{"e"}}, 2000, 200)
	if sum := summarize(ops); sum.sent != 200 || sum.failed != 0 {
		t.Fatalf("summary = %+v, want 200 clean requests", sum)
	}
	c.close()
	// The transport's connection goroutines exit once the idle
	// connections close; the workers are joined before run returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the load, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
