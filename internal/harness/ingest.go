package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/workload"
)

// IngestResult measures one sustained-ingest-to-quiesce run: the timed
// write phase plus the drain that follows (flush everything, compact
// until no work remains), so a configuration cannot look fast by merely
// deferring its compaction debt past the finish line.
type IngestResult struct {
	Name string
	Ops  int64
	// Ingest is the timed write phase; Quiesce is the flush+compact-all
	// drain after it; Total is their sum.
	Ingest, Quiesce, Total time.Duration
	// KOPS is ingest-to-quiesce throughput: operations over Total.
	KOPS float64
	// Stalls and StallTime total the write-stall episodes and their
	// wall time during the run — the backpressure the scheduler is
	// supposed to shrink.
	Stalls    int64
	StallTime time.Duration
	// P50/P99 are per-write latency quantiles of the ingest phase.
	P50, P99 time.Duration
	// WA is the run's write amplification (quiesce included).
	WA float64
}

// RunIngest executes the spec's mix as a sustained ingest and then
// drains the tree, timing both phases. The spec's mix should be
// write-only (reads would be measured as ingest operations).
func RunIngest(spec Spec) (IngestResult, error) {
	db, cleanup, err := openEngine(spec)
	if err != nil {
		return IngestResult{}, err
	}
	defer cleanup()

	if err := prepopulate(db, spec); err != nil {
		return IngestResult{}, err
	}
	if err := db.Flush(); err != nil {
		return IngestResult{}, err
	}
	if err := db.CompactAll(); err != nil {
		return IngestResult{}, err
	}

	threads := spec.Threads
	if threads <= 0 {
		threads = 1
	}
	perWorker := spec.Ops / int64(threads)
	before := db.Metrics()
	rec := obs.NewHist()
	errCh := make(chan error, threads)
	start := time.Now()
	done := make(chan struct{})
	for w := 0; w < threads; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			stream := spec.Mix.NewStream(spec.Seed + int64(w)*7919)
			for i := int64(0); i < perWorker; i++ {
				op := stream.Next()
				t0 := time.Now()
				if op.Delete {
					if err := db.Delete(op.Key); err != nil {
						errCh <- err
						return
					}
				} else {
					if err := db.Put(op.Key, op.Value); err != nil {
						errCh <- err
						return
					}
				}
				rec.Record(time.Since(t0))
			}
		}(w)
	}
	for w := 0; w < threads; w++ {
		<-done
	}
	ingest := time.Since(start)
	select {
	case err := <-errCh:
		return IngestResult{}, err
	default:
	}

	// Quiesce: the run is not over until the debt the ingest built up is
	// paid down.
	qStart := time.Now()
	if err := db.Flush(); err != nil {
		return IngestResult{}, err
	}
	if err := db.CompactAll(); err != nil {
		return IngestResult{}, err
	}
	quiesce := time.Since(qStart)

	snap := db.Metrics().Sub(before)
	totalOps := perWorker * int64(threads)
	total := ingest + quiesce
	lat := rec.Snapshot()
	return IngestResult{
		Name:      spec.Name,
		Ops:       totalOps,
		Ingest:    ingest,
		Quiesce:   quiesce,
		Total:     total,
		KOPS:      float64(totalOps) / total.Seconds() / 1000,
		Stalls:    snap.WriteStalls,
		StallTime: snap.WriteStallTime,
		P50:       lat.Quantile(0.50),
		P99:       lat.Quantile(0.99),
		WA:        snap.WriteAmplification(),
	}, nil
}

// Ingest is the background-scheduler experiment (not a paper figure;
// the scheduler extension): the same sustained uniform ingest driven to
// quiesce under three background pool configurations at identical
// aggregate memory — 2 workers with monolithic compactions (the paper's
// RocksDB baseline), and parallel subcompactions at 2 and 4 workers.
// On the in-memory filesystem a merge's cost is pure CPU (block decode,
// heap merge, block build, checksums), the deep-queue-SSD regime where
// compaction wall time divides by the slice count; the pool turns that
// into fewer and shorter write stalls. Reported per row:
// ingest-to-quiesce throughput, phase times, write stalls and their
// total seconds, and write-tail latency. Only a sharded run sizes its
// pool, so an unsharded scale runs on 4 shards.
func Ingest(s Scale, w io.Writer) ([]IngestResult, error) {
	if s.Shards <= 1 {
		s.Shards = 4
	}
	rows := []struct {
		label   string
		workers int
		subcomp int
	}{
		{"pool 2w 1sub", 2, 1},
		{"pool 2w 2sub", 2, 2},
		{"pool 4w 4sub", 4, 4},
	}

	var out []IngestResult
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Sustained ingest to quiesce: uniform write-only, %d workers\n", s.Threads)
	fmt.Fprintln(tw, "config\tKOPS\tspeedup\tingest\tquiesce\tstalls\tstall-time\tp99\tWA")
	var base float64
	for _, r := range rows {
		spec := Spec{
			Name:                r.label,
			Engine:              shard.DivideBudgets(s.engine("baseline"), s.Shards),
			Shards:              s.Shards,
			Partitioner:         s.Partitioner,
			Mix:                 workload.Mix{Dist: workload.Uniform{N: s.Keys}, ReadFraction: 0},
			Threads:             s.Threads,
			Ops:                 s.Ops,
			PrepopulateFraction: 0.5,
			BackgroundWorkers:   r.workers,
			MaxSubcompactions:   r.subcomp,
			Seed:                42,
		}
		res, err := RunIngest(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
		if base == 0 {
			base = res.KOPS
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2fx\t%.2fs\t%.2fs\t%d\t%.2fs\t%s\t%.2f\n",
			res.Name, FormatKOPS(res.KOPS), res.KOPS/base,
			res.Ingest.Seconds(), res.Quiesce.Seconds(),
			res.Stalls, res.StallTime.Seconds(), res.P99, res.WA)
	}
	return out, tw.Flush()
}
