package harness

import (
	"io"
	"strings"
	"testing"

	"repro/internal/bgsched"
	"repro/internal/workload"
)

// TestRunIngestPhases: both phases are timed, the counters move, the
// monolithic and sliced configurations of a single instance on a
// caller-owned 2-worker pool agree on the amount of work done, and a
// pool size the run cannot honour is rejected rather than remapped.
func TestRunIngestPhases(t *testing.T) {
	s := Scale{Keys: 6_000, Ops: 12_000, MemtableBytes: 64 << 10, Threads: 4}
	pool := bgsched.NewPool(2)
	defer pool.Close()
	for _, cfg := range []struct {
		name    string
		pool    *bgsched.Pool // Engine.Scheduler
		workers int           // Spec.BackgroundWorkers
		subcomp int
		wantErr string
	}{
		{"pool-2w-monolithic", pool, 0, 1, ""},
		{"pool-2w", pool, 0, 2, ""},
		{"negative-workers", nil, -1, 1, "BackgroundWorkers is -1"},
		{"unsharded-sized", nil, 2, 1, "only a sharded run sizes its pool"},
	} {
		spec := Spec{
			Name:                cfg.name,
			Engine:              s.engine("baseline"),
			Mix:                 workload.Mix{Dist: workload.Uniform{N: s.Keys}},
			Threads:             s.Threads,
			Ops:                 s.Ops,
			PrepopulateFraction: 0.5,
			BackgroundWorkers:   cfg.workers,
			MaxSubcompactions:   cfg.subcomp,
			Seed:                7,
		}
		spec.Engine.Scheduler = cfg.pool
		res, err := RunIngest(spec)
		if cfg.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), cfg.wantErr) {
				t.Fatalf("%s: err = %v, want one containing %q", cfg.name, err, cfg.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if res.Ops != spec.Ops {
			t.Errorf("%s: ran %d ops, want %d", cfg.name, res.Ops, spec.Ops)
		}
		if res.Total <= 0 || res.Total != res.Ingest+res.Quiesce {
			t.Errorf("%s: inconsistent phase times: %+v", cfg.name, res)
		}
		if res.KOPS <= 0 || res.WA <= 0 {
			t.Errorf("%s: missing derived metrics: %+v", cfg.name, res)
		}
	}
}

// TestIngestExperiment runs the three-row comparison end to end at a
// tiny scale.
func TestIngestExperiment(t *testing.T) {
	s := Scale{Keys: 5_000, Ops: 10_000, MemtableBytes: 64 << 10, Threads: 4}
	rows, err := Ingest(s, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Ops != s.Ops {
			t.Errorf("%s: ran %d ops, want %d", r.Name, r.Ops, s.Ops)
		}
	}
}
