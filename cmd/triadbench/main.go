// Command triadbench regenerates the tables and figures of the TRIAD
// paper's evaluation (§5) against this reproduction.
//
// Usage:
//
//	triadbench -experiment fig9a            # one figure, quick scale
//	triadbench -experiment all -scale full  # everything, paper-like scale
//
// Experiments: fig2, fig7, fig8, fig9a, fig9b (includes 9c), fig9d,
// fig10, fig11, shardscale, scanlocal, conflict, net, cacheskew,
// ingest, all.
//
// -shards N (N > 1) runs every figure against the sharded engine (N lsm
// instances at the same aggregate memory); the shardscale experiment
// instead sweeps shard counts 1..N and tabulates the scaling itself,
// and scanlocal compares hash vs range partitioning scan throughput at
// one shard count. -partitioner hash|range picks the shard router for
// the figure runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	var (
		exp     = flag.String("experiment", "all", "which figure to regenerate: fig2|fig7|fig8|fig9a|fig9b|fig9c|fig9d|fig10|fig11|fig10dev|sizetiered|shardscale|scanlocal|conflict|net|cacheskew|ingest|all")
		scale   = flag.String("scale", "quick", "quick (seconds per figure) or full (paper-like sizes)")
		keys    = flag.Uint64("keys", 0, "override synthetic key-space size")
		ops     = flag.Int64("ops", 0, "override timed operation count per run")
		threads = flag.Int("threads", 0, "override worker count for fixed-thread figures")
		shards  = flag.Int("shards", 1, "run figures on a sharded engine of N lsm instances; also the shardscale sweep's maximum and scanlocal's shard count")
		part    = flag.String("partitioner", "hash", "shard router for sharded runs: hash (balanced point ops) or range (shard-local scans)")
	)
	flag.Parse()
	switch *part {
	case "hash", "range":
	default:
		fmt.Fprintf(os.Stderr, "unknown partitioner %q (want hash or range)\n", *part)
		os.Exit(2)
	}

	var s harness.Scale
	switch *scale {
	case "quick":
		s = harness.QuickScale()
	case "full":
		s = harness.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *keys > 0 {
		s.Keys = *keys
	}
	if *ops > 0 {
		s.Ops = *ops
		s.ProdOps = *ops
	}
	if *threads > 0 {
		s.Threads = *threads
	}
	if *shards > 1 {
		s.Shards = *shards
	}
	s.Partitioner = *part

	run := func(name string, fn func() error) {
		start := time.Now()
		fmt.Printf("=== %s ===\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s in %.1fs)\n\n", name, time.Since(start).Seconds())
	}

	want := func(name string) bool { return *exp == "all" || strings.EqualFold(*exp, name) }
	any := false
	if want("fig2") {
		any = true
		run("fig2", func() error { _, err := harness.Fig2(s, os.Stdout); return err })
	}
	if want("fig7") {
		any = true
		run("fig7", func() error { return harness.Fig7(s, os.Stdout) })
	}
	if want("fig8") {
		any = true
		run("fig8", func() error { return harness.Fig8(s, os.Stdout) })
	}
	if want("fig9a") {
		any = true
		run("fig9a", func() error { _, err := harness.Fig9A(s, os.Stdout); return err })
	}
	if want("fig9b") || want("fig9c") {
		any = true
		run("fig9b/9c", func() error { _, err := harness.Fig9BC(s, os.Stdout); return err })
	}
	if want("fig9d") {
		any = true
		run("fig9d", func() error { _, err := harness.Fig9D(s, os.Stdout); return err })
	}
	if want("fig10") {
		any = true
		run("fig10", func() error { _, err := harness.Fig10(s, os.Stdout); return err })
	}
	if want("fig11") {
		any = true
		run("fig11", func() error { _, err := harness.Fig11(s, os.Stdout); return err })
	}
	if want("fig10dev") {
		any = true
		run("fig10dev", func() error { _, err := harness.Fig10Device(s, os.Stdout); return err })
	}
	if want("sizetiered") {
		any = true
		run("sizetiered", func() error { _, err := harness.SizeTiered(s, os.Stdout); return err })
	}
	if want("shardscale") {
		any = true
		// The sweep compares shard counts itself, so it runs each count
		// explicitly rather than inheriting the global override.
		sweep := s
		sweep.Shards = 0
		run("shardscale", func() error { _, err := harness.ShardScale(sweep, *shards, os.Stdout); return err })
	}
	if want("scanlocal") {
		any = true
		// Compares hash vs range itself, at one shard count.
		n := *shards
		if n < 2 {
			n = 4
		}
		run("scanlocal", func() error { _, err := harness.ScanLocality(s, n, os.Stdout); return err })
	}
	if want("conflict") {
		any = true
		// Contended cross-shard commits: conflicting Apply batches from
		// 1..8 writers, serialized by the epoch commit pipeline, with a
		// concurrent snapshotter measuring capture latency under load.
		n := *shards
		if n < 2 {
			n = 4
		}
		run("conflict", func() error { _, err := harness.Conflict(s, n, os.Stdout); return err })
	}
	if want("net") {
		any = true
		// Network front end: group commit vs one-Apply-per-command over
		// 1..16 pipelined client connections.
		run("net", func() error { _, err := harness.NetThroughput(s, os.Stdout); return err })
	}
	if want("cacheskew") {
		any = true
		// Shared vs equal-split block cache under skewed multi-tenant
		// reads, at identical total cache bytes.
		run("cacheskew", func() error { _, err := harness.CacheSkew(s, os.Stdout); return err })
	}
	if want("ingest") {
		any = true
		// Sustained ingest to quiesce: a 2-worker pool with monolithic
		// compactions (the paper's baseline) vs parallel subcompactions,
		// at identical aggregate memory.
		run("ingest", func() error { _, err := harness.Ingest(s, os.Stdout); return err })
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
