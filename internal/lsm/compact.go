package lsm

import (
	"fmt"
	"time"

	"repro/internal/compaction"
	"repro/internal/hll"
	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/sstable"
	"repro/internal/wal"
)

// compactOnceLocked picks and runs one compaction under compactionMu.
// force bypasses a TRIAD-DISK deferral by merging whatever L0 holds.
func (db *DB) compactOnceLocked(force bool) (bool, error) {
	db.compactionMu.Lock()
	defer db.compactionMu.Unlock()
	db.versionMu.RLock()
	job := db.picker.Pick(db.version, func(f *manifest.FileMeta) *hll.Sketch {
		if t, ok := db.tables[f.ID]; ok {
			return t.Sketch()
		}
		return nil
	})
	db.versionMu.RUnlock()
	if job == nil {
		return false, nil
	}
	if job.Deferred {
		db.met.CompactionsDefer.Add(1)
		if !force {
			return false, nil
		}
		db.versionMu.RLock()
		l0 := append([]*manifest.FileMeta(nil), db.version.Levels[0]...)
		if db.opts.SizeTieredCompaction {
			job = &compaction.Job{Level: 0, OutputLevel: 0, Inputs: l0, WholeTree: true}
		} else {
			lo, hi := compaction.KeyRangeOf(l0)
			job = &compaction.Job{Level: 0, OutputLevel: 1, Inputs: l0, Overlaps: db.version.Overlapping(1, lo, hi)}
		}
		db.versionMu.RUnlock()
	}
	return true, db.runCompaction(job)
}

// CompactOnce runs at most one compaction synchronously and reports
// whether one ran (false also when TRIAD-DISK deferred). For tests and
// the tuning example; normal operation compacts in the background.
func (db *DB) CompactOnce() (bool, error) {
	return db.compactOnceLocked(false)
}

// CompactAll drains all pending compactions synchronously, ignoring
// TRIAD-DISK deferral (used to settle the tree before measurements).
func (db *DB) CompactAll() error {
	for {
		ran, err := db.compactOnceLocked(true)
		if err != nil || !ran {
			return err
		}
	}
}

// runCompaction merges job.Inputs (level L) with job.Overlaps (level L+1)
// into fresh tables at L+1, discarding stale versions — and, with
// TRIAD-MEM, versions of keys currently held hot in the memtable (§4.3:
// "during compaction, the hot keys are skipped, similarly to the duplicate
// updates"; safe because the memtable version is strictly newer and is
// durable in the current commit log).
//
// A large leveled compaction is partitioned into disjoint key-range
// slices (boundaries from the input tables' block indexes) merged in
// parallel on the pool; the slices' outputs are concatenated — they are
// disjoint and in key order — and installed as the same single atomic
// manifest edit a monolithic merge produces, so snapshots and zombie
// refcounts never see a half-installed split.
func (db *DB) runCompaction(job *compaction.Job) error {
	start := time.Now()
	defer func() { db.met.CompactionNanos.Add(time.Since(start).Nanoseconds()) }()
	db.met.Compactions.Add(1)

	outLevel := job.OutputLevel
	if outLevel < job.Level {
		outLevel = job.Level + 1
	}
	all := append(append([]*manifest.FileMeta(nil), job.Inputs...), job.Overlaps...)

	// Resolve tables newest-first: L0 inputs are already newest-first in
	// the version; the next level's files are strictly older. The inputs
	// cannot be closed mid-compaction — only a compaction consumes live
	// tables, and compactionMu serializes them.
	db.versionMu.RLock()
	tabs := make([]sstable.Table, 0, len(all))
	for _, f := range all {
		t, ok := db.tables[f.ID]
		if !ok {
			db.versionMu.RUnlock()
			return errClosedTable(f.ID)
		}
		tabs = append(tabs, t)
	}
	lo, hi := compaction.KeyRangeOf(all)
	// Tombstones may be dropped only when nothing outside the merge can
	// still hold an older version of a key in range: for leveled output,
	// nothing below the output level overlaps; for a size-tiered merge,
	// only when the whole tree participates.
	drop := true
	if outLevel == job.Level {
		drop = job.WholeTree
	} else {
		for l := outLevel + 1; l < manifest.NumLevels; l++ {
			if len(db.version.Overlapping(l, lo, hi)) > 0 {
				drop = false
				break
			}
		}
	}
	db.versionMu.RUnlock()

	var skip func([]byte) bool
	if db.opts.TriadMem && job.Level == 0 {
		db.mu.Lock()
		mem := db.mem
		db.mu.Unlock()
		// Memtable reads take its internal RWMutex, so concurrent
		// subcompaction slices may share this closure.
		skip = func(key []byte) bool {
			_, ok := mem.Get(key)
			if ok {
				db.met.EntriesDiscarded.Add(1)
			}
			return ok
		}
	}

	var inBytes int64
	for _, f := range all {
		inBytes += f.Size
	}
	// Size-tiered merges (output level == input level) must stay
	// monolithic: they produce exactly one table.
	slices := []compaction.Slice{{}}
	if outLevel != job.Level {
		maxSub := db.opts.MaxSubcompactions
		if maxSub <= 0 {
			maxSub = db.opts.Scheduler.Workers()
		}
		// Don't split below about one output file of input per slice —
		// the split overhead would outweigh the parallelism.
		if perSlice := int(inBytes / db.opts.TargetFileBytes); perSlice < maxSub {
			maxSub = perSlice
		}
		slices = compaction.SplitJob(tabs, maxSub)
	}

	results := make([]sliceResult, len(slices))
	if len(slices) == 1 {
		results[0] = db.runSlice(tabs, slices[0], outLevel, outLevel == job.Level, drop, skip)
	} else {
		fns := make([]func(), len(slices))
		for i := range slices {
			i := i
			fns[i] = func() {
				results[i] = db.runSlice(tabs, slices[i], outLevel, false, drop, skip)
			}
		}
		db.sched.RunSlices(db.opts.EventShard, fns)
	}

	var outputs []manifest.FileMeta
	var written int64
	var firstErr error
	for _, r := range results {
		if r.err != nil && firstErr == nil {
			firstErr = r.err
		}
		outputs = append(outputs, r.outputs...)
		written += r.written
	}
	if firstErr != nil {
		// Every slice aborted its own partial writer; finished slices'
		// outputs were never installed, so remove their files.
		for _, o := range outputs {
			f := o
			_ = db.removeTableFiles(&f)
		}
		return firstErr
	}
	db.met.BytesCompacted.Add(written)
	db.opts.Ledger.Add(obs.SrcCompactionWrite, written)

	if err := db.installCompaction(all, outputs); err != nil {
		return err
	}
	db.opts.Ledger.Add(obs.SrcCompactionRead, inBytes)
	detail := fmt.Sprintf("L%d->L%d, %d outputs", job.Level, outLevel, len(outputs))
	if job.WholeTree {
		detail = fmt.Sprintf("size-tiered %d-way, %d outputs", len(all), len(outputs))
	}
	if len(slices) > 1 {
		detail += fmt.Sprintf(", %d subcompactions", len(slices))
	}
	db.opts.Events.Add(obs.Event{
		Kind: obs.EventCompaction, Shard: db.opts.EventShard, Level: job.Level,
		Dur: time.Since(start), In: inBytes, Out: written,
		Files: len(all), Detail: detail,
	})
	return nil
}

// sliceResult is one subcompaction slice's contribution: its output
// tables in key order, and the bytes it wrote.
type sliceResult struct {
	outputs []manifest.FileMeta
	written int64
	err     error
}

// runSlice merges one key-range slice of the input tables into fresh
// tables at outLevel. With the zero Slice it is the whole (monolithic)
// compaction. singleOutput pins a size-tiered merge to one table —
// splitting would recreate same-sized files for the bucketer to merge
// again, forever; tiers are supposed to grow.
func (db *DB) runSlice(tabs []sstable.Table, slc compaction.Slice, outLevel int, singleOutput bool, drop bool, skip func([]byte) bool) sliceResult {
	merge, err := compaction.NewSliceMerge(tabs, slc)
	if err != nil {
		return sliceResult{err: err}
	}
	dedup := compaction.NewDedupIterator(merge, drop, skip)
	defer dedup.Close()

	var (
		res   sliceResult
		w     *sstable.Writer
		first []byte
		count uint64
	)
	finish := func() error {
		if w == nil {
			return nil
		}
		n, err := w.Finish()
		if err != nil {
			w.Abort(db.fs)
			return err
		}
		res.written += n
		res.outputs = append(res.outputs, manifest.FileMeta{
			ID:         w.ID(),
			Kind:       manifest.KindSST,
			Level:      outLevel,
			Size:       n,
			NumEntries: count,
			Smallest:   first,
			Largest:    append([]byte(nil), w.LastKey()...),
		})
		w = nil
		return nil
	}
	for dedup.Next() {
		e := dedup.Entry()
		db.met.EntriesCompacted.Add(1)
		if w == nil {
			db.mu.Lock()
			id := db.allocFileID()
			db.mu.Unlock()
			w, err = sstable.NewWriter(db.fs, id, db.opts.BlockBytes)
			if err != nil {
				res.err = err
				return res
			}
			first = append([]byte(nil), e.Key...)
			count = 0
		}
		if err := w.Add(e); err != nil {
			w.Abort(db.fs)
			res.err = err
			return res
		}
		count++
		// Leveled outputs roll at the target file size.
		if !singleOutput && w.EstimatedSize() >= db.opts.TargetFileBytes {
			if err := finish(); err != nil {
				res.err = err
				return res
			}
		}
	}
	if err := dedup.Err(); err != nil {
		if w != nil {
			w.Abort(db.fs)
		}
		res.err = err
		return res
	}
	res.err = finish()
	return res
}

// installCompaction journals the edit, swaps the version, and removes the
// consumed files (for CL-SSTables: the index and its pinned commit log).
func (db *DB) installCompaction(consumed []*manifest.FileMeta, outputs []manifest.FileMeta) error {
	newTables := make(map[uint64]sstable.Table, len(outputs))
	for i := range outputs {
		t, err := db.openTable(&outputs[i])
		if err != nil {
			for _, nt := range newTables {
				nt.Close()
			}
			return err
		}
		newTables[outputs[i].ID] = t
	}
	db.mu.Lock()
	edit := manifest.Edit{Added: outputs, NextFileID: db.nextID, LastSeq: db.seq}
	db.mu.Unlock()
	for _, f := range consumed {
		edit.Deleted = append(edit.Deleted, f.ID)
	}
	if err := db.manifest.Append(edit); err != nil {
		for _, nt := range newTables {
			nt.Close()
		}
		return err
	}
	db.versionMu.Lock()
	nv, err := db.version.Apply(edit)
	if err != nil {
		db.versionMu.Unlock()
		for _, nt := range newTables {
			nt.Close()
		}
		return err
	}
	db.version = nv
	var closeErr error
	// A consumed file a snapshot still pins becomes a zombie: it leaves
	// the version but keeps its open table and on-disk bytes until the
	// last pinning snapshot closes. Unpinned files go immediately.
	var free []*manifest.FileMeta
	for _, f := range consumed {
		if db.refs[f.ID] > 0 {
			db.zombies[f.ID] = f
			continue
		}
		if t, ok := db.tables[f.ID]; ok {
			if err := t.Close(); err != nil && closeErr == nil {
				closeErr = err
			}
			delete(db.tables, f.ID)
		}
		free = append(free, f)
	}
	for id, t := range newTables {
		db.tables[id] = t
	}
	db.l0Count.Store(int32(len(nv.Levels[0])))
	db.versionMu.Unlock()
	// Wake writers stalled on the L0 file count.
	db.mu.Lock()
	db.cond.Broadcast()
	db.mu.Unlock()
	if closeErr != nil {
		return closeErr
	}
	for _, f := range free {
		db.cache.EvictTable(f.ID)
	}
	for _, f := range free {
		if err := db.removeTableFiles(f); err != nil {
			return err
		}
	}
	return nil
}

// removeTableFiles deletes a table's on-disk files (for CL-SSTables: the
// index and the commit log it pins).
func (db *DB) removeTableFiles(f *manifest.FileMeta) error {
	switch f.Kind {
	case manifest.KindCLSST:
		if err := db.fs.Remove(sstable.CLIndexFileName(f.ID)); err != nil {
			return err
		}
		return db.fs.Remove(wal.FileName(f.LogID))
	default:
		return db.fs.Remove(sstable.FileName(f.ID))
	}
}

func closeAll(its []sstable.Iterator) {
	for _, it := range its {
		it.Close()
	}
}

type errClosedTable uint64

func (e errClosedTable) Error() string { return "lsm: table missing from cache" }
