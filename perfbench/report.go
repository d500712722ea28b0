package main

import (
	"time"

	"repro/internal/histogram"
	engmetrics "repro/internal/metrics"
	"repro/internal/sstable"
)

// window is everything one timed phase measured.
type window struct {
	stats    [numModes]opStats
	dur      [numModes]time.Duration
	io       ioSnap  // whole window
	ioTraced ioSnap  // traced slices only (timings are only taken there)
	tail     opStats // untimed operations after the phase (cycleTail)
	ioTail   ioSnap  // what the tail and its compactions wrote
	eng      engmetrics.Snapshot
	cache    sstable.CacheStats
	proc     procSample
	resident int64
	setupS   []float64
	layers   *layerAcc

	heapPeak uint64

	groupOps, groupBatches int64
	apply                  histogram.H
	userBytes              int64 // live keys x record size
}

func cacheDelta(a, b sstable.CacheStats) sstable.CacheStats {
	return sstable.CacheStats{
		Hits:             a.Hits - b.Hits,
		Misses:           a.Misses - b.Misses,
		Evictions:        a.Evictions - b.Evictions,
		AdmissionRejects: a.AdmissionRejects - b.AdmissionRejects,
	}
}

func procDelta(a, b procSample) procSample {
	return procSample{
		cpu:        a.cpu - b.cpu,
		allocObjs:  a.allocObjs - b.allocObjs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
	}
}

// histDelta returns the observations recorded between two snapshots of
// one cumulative histogram.
func histDelta(after, before histogram.H) histogram.H {
	counts := make([]uint64, histogram.NumBuckets)
	after.EachBucket(func(mid time.Duration, n uint64) { counts[histogram.BucketOf(mid)] += n })
	before.EachBucket(func(mid time.Duration, n uint64) { counts[histogram.BucketOf(mid)] -= n })
	return histogram.FromCounts(counts, -1, -1)
}

// finish turns a measured window into the run's output.
func finish(cfg runConfig, w *window) runOutput {
	att, failed := w.attempted()
	all := w.all()
	out := runOutput{
		attempted: att,
		failed:    failed,
		info: map[string]any{
			"read_samples":  all.reads,
			"write_samples": all.writes,
			"tail_ops":      w.tail.ops(),
			"keys":          cfg.spec.keys,
			"read_frac":     cfg.spec.readFrac,
			"setup_runs_s":  w.setupS,
		},
	}
	if cfg.traced {
		out.metrics = w.perLayer()
		out.layers = w.layerTable()
	} else {
		out.metrics = w.endToEnd()
	}
	return out
}

// all merges both modes' client counts.
func (w *window) all() opStats {
	var s opStats
	s.add(&w.stats[modeUntraced])
	s.add(&w.stats[modeTraced])
	return s
}

// attempted counts every checked operation, the tail's too.
func (w *window) attempted() (int64, int64) {
	s := w.all()
	return s.ops() + w.tail.ops(), s.failed + w.tail.failed
}

// endToEnd is what a --trace 0 run reports. Every figure covers the
// whole timed phase: ratios of its totals, quantiles of all its
// latencies and the heap's peak. write_amp also counts the untimed
// tail that closes the phase's last compaction cycle, and space_amp is
// the filesystem's size after it (see cycleTail).
func (w *window) endToEnd() map[string]metric {
	s := &w.stats[modeUntraced]
	ops := float64(s.ops())
	return map[string]metric{
		"throughput_kops": {ops / w.dur[modeUntraced].Seconds() / 1000, "kops/s"},
		"write_p50_us":    {quantileUS(&s.writeLat, 0.50), "us"},
		"write_p99_us":    {quantileUS(&s.writeLat, 0.99), "us"},
		"read_p50_us":     {quantileUS(&s.readLat, 0.50), "us"},
		"read_p99_us":     {quantileUS(&s.readLat, 0.99), "us"},
		"write_amp":       {ratio(float64(sum(w.io.writeBytes)+sum(w.ioTail.writeBytes)), float64((s.writes+w.tail.writes)*recordBytes)), "ratio"},
		"space_amp":       {ratio(float64(w.resident), float64(w.userBytes)), "ratio"},
		"cpu_us_per_op":   {ratio(us(w.proc.cpu), ops), "us"},
		"heap_peak_mb":    {float64(w.heapPeak) / (1 << 20), "MiB"},
		"setup_s":         {median(w.setupS), "s"},
	}
}

// perLayer is what a --trace 1 run reports. Counters cover the whole
// window (both modes); span timings come from the traced slices.
func (w *window) perLayer() map[string]metric {
	all := w.all()
	ops := float64(all.ops())
	writes := float64(all.writes)
	gets := float64(all.reads)
	e := w.eng
	a := w.layers
	io := w.io
	it := w.ioTraced
	spanPerOp := func(kind string) float64 {
		return us(time.Duration(a.spanNs[kind])) / float64(max(a.samples, 1))
	}
	untraced := float64(w.stats[modeUntraced].ops()) / w.dur[modeUntraced].Seconds()
	traced := float64(w.stats[modeTraced].ops()) / w.dur[modeTraced].Seconds()
	m := map[string]metric{
		"vfs.log.write_bytes_per_op":   {ratio(float64(io.writeBytes[classLog]), ops), "B"},
		"vfs.sst.write_bytes_per_op":   {ratio(float64(io.writeBytes[classSST]), ops), "B"},
		"vfs.clidx.write_bytes_per_op": {ratio(float64(io.writeBytes[classCLIdx]), ops), "B"},
		"vfs.reads_per_get":            {ratio(float64(a.fgReadCalls), float64(a.gets)), "count"},
		"vfs.read_us_per_get":          {ratio(us(time.Duration(a.fgReadNs)), float64(a.gets)), "us"},
		"vfs.resident_mb":              {float64(w.resident) / (1 << 20), "MiB"},

		"wal.write_calls_per_write": {ratio(float64(io.writeCalls[classLog]), writes), "count"},
		"wal.syncs_per_write":       {ratio(float64(io.syncCalls[classLog]), writes), "count"},
		"wal.sync_us":               {ratio(us(time.Duration(it.syncNanos[classLog])), float64(it.syncCalls[classLog])), "us"},
		"wal.append_us":             {ratio(us(time.Duration(a.walNs)), float64(a.writes)), "us"},

		"memtable.apply_us":           {ratio(us(time.Duration(a.memNs)), float64(a.writes)), "us"},
		"memtable.read_hit_frac":      {ratio(float64(e.ReadsFromMem), float64(e.UserReads)), "ratio"},
		"memtable.hot_kept_per_flush": {ratio(float64(e.HotKeysKeptInMem), float64(e.Flushes)), "count"},
		"memtable.flush_skips":        {float64(e.FlushSkips), "count"},

		"lsm.flushes":               {float64(e.Flushes), "count"},
		"lsm.flush_busy_s":          {e.FlushTime.Seconds(), "s"},
		"lsm.flush_bytes_per_write": {ratio(float64(e.BytesFlushed), writes), "B"},
		"lsm.flush_mb_per_s":        {ratio(float64(e.BytesFlushed)/(1<<20), e.FlushTime.Seconds()), "MiB/s"},

		"compaction.runs":            {float64(e.Compactions), "count"},
		"compaction.busy_s":          {e.CompactionTime.Seconds(), "s"},
		"compaction.bytes_per_write": {ratio(float64(e.BytesCompacted), writes), "B"},
		"compaction.mb_per_s":        {ratio(float64(e.BytesCompacted)/(1<<20), e.CompactionTime.Seconds()), "MiB/s"},
		"compaction.deferrals":       {float64(e.CompactionsDeferred), "count"},
		"compaction.discard_frac":    {ratio(float64(e.EntriesDiscarded), float64(e.EntriesCompacted)), "ratio"},

		"bgsched.stalls":  {float64(e.WriteStalls), "count"},
		"bgsched.stall_s": {e.WriteStallTime.Seconds(), "s"},

		"sstable.table_reads_per_get":     {ratio(float64(e.TableDiskReads), float64(e.UserReads)), "count"},
		"sstable.read_us":                 {ratio(us(time.Duration(a.sstNs)), float64(a.sstSpans)), "us"},
		"sstable.cache_hit_rate":          {w.cache.HitRate(), "ratio"},
		"sstable.cache_evictions_per_get": {ratio(float64(w.cache.Evictions), gets), "count"},
		"sstable.cache_admission_rejects": {float64(w.cache.AdmissionRejects), "count"},

		"shard.apply_p50_us": {us(w.apply.Quantile(0.50)), "us"},
		"shard.apply_p99_us": {us(w.apply.Quantile(0.99)), "us"},

		"server.decode_us":           {spanPerOp("decode"), "us"},
		"server.barrier_us":          {spanPerOp("barrier"), "us"},
		"server.coalesce_us":         {spanPerOp("coalesce"), "us"},
		"server.epoch_wait_us":       {spanPerOp("epoch_wait"), "us"},
		"server.commit_us":           {spanPerOp("commit"), "us"},
		"server.reply_flush_us":      {spanPerOp("reply_flush"), "us"},
		"server.group_ops_mean":      {ratio(float64(w.groupOps), float64(w.groupBatches)), "count"},
		"runtime.allocs_per_op":      {ratio(float64(w.proc.allocObjs), ops), "count"},
		"runtime.alloc_bytes_per_op": {ratio(float64(w.proc.allocBytes), ops), "B"},
		"runtime.gc_cycles":          {float64(w.proc.gcCycles), "count"},

		"trace.attributed_frac": {a.attributed(), "ratio"},
		"trace.overhead_frac":   {1 - ratio(traced, untraced), "ratio"},
	}
	return m
}

// layerTable is the layer sum check printed beside a traced run's
// metrics: each layer's self time per operation, the traced and
// untraced mean operation time, and what the layers leave unexplained.
func (w *window) layerTable() map[string]any {
	a := w.layers
	self := a.selfPerOp()
	var spanned float64
	for _, v := range self {
		spanned += v
	}
	return map[string]any{
		"self_us_per_op":  self,
		"traced_op_us":    a.rootMeanUS(),
		"untraced_op_us":  us(w.stats[modeUntraced].meanLatency()),
		"unattributed_us": a.rootMeanUS() - spanned,
		"sampled_ops":     a.samples,
		"traced_ops":      a.rootOps,
		"attributed_frac": a.attributed(),
	}
}
