package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bgsched"
	"repro/internal/histogram"
	engmetrics "repro/internal/metrics"
	"repro/internal/sstable"
	"repro/internal/workload"
)

// Measurement modes. A --trace 0 run measures only untraced; a
// --trace 1 run alternates untraced and traced slices on one store, so
// the tracing overhead is measured against the same state.
const (
	modeUntraced = iota
	modeTraced
	modeDone
	numModes = 2
)

// sliceLen is the length of one untraced or traced slice of a traced run.
const sliceLen = 500 * time.Millisecond

// setupReps is how many times an untraced run sets the store up; the
// last store is measured and setup_s is the median.
const setupReps = 3

// reps is how many set-ups the run makes: a traced run reports no
// setup_s, so it sets up once.
func (c runConfig) reps() int {
	if c.traced {
		return 1
	}
	return setupReps
}

// opStats are one client's counts and latencies in one mode. The
// latencies go into fixed-memory histograms, so the benchmark's own
// heap does not grow with the number of operations it measures.
type opStats struct {
	reads, writes, failed int64
	readLat, writeLat     histogram.H
	latSum                time.Duration // exact, for the mean
}

func (s *opStats) record(read bool, d time.Duration) {
	if read {
		s.reads++
		s.readLat.Record(d)
	} else {
		s.writes++
		s.writeLat.Record(d)
	}
	s.latSum += d
}

func (s *opStats) add(o *opStats) {
	s.reads += o.reads
	s.writes += o.writes
	s.failed += o.failed
	s.readLat.Merge(&o.readLat)
	s.writeLat.Merge(&o.writeLat)
	s.latSum += o.latSum
}

func (s *opStats) ops() int64 { return s.reads + s.writes }

func (s *opStats) meanLatency() time.Duration {
	if n := s.ops(); n > 0 {
		return s.latSum / time.Duration(n)
	}
	return 0
}

// quantileUS returns the q-quantile of h in microseconds. It
// interpolates in rank between the representative values of adjacent
// occupied buckets, so the figure moves smoothly instead of jumping
// from one bucket to the next.
func quantileUS(h *histogram.H, q float64) float64 {
	if h.Count() == 0 {
		return 0
	}
	target := q * float64(h.Count())
	var cum float64
	prev, out, found := h.Min(), h.Max(), false
	h.EachBucket(func(mid time.Duration, n uint64) {
		if found {
			return
		}
		lo := min(prev, mid)
		if cum+float64(n) >= target {
			out = lo + time.Duration((target-cum)/float64(n)*float64(mid-lo))
			found = true
			return
		}
		cum += float64(n)
		prev = mid
	})
	return us(max(h.Min(), min(out, h.Max())))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// controller flips the clients between modes and accounts the wall
// time spent in each.
type controller struct {
	mode atomic.Int32
	dur  [numModes]time.Duration
}

// run measures for seconds. A traced run alternates untraced and
// traced slices, calling enter before and leave after every traced
// slice (still in modeTraced, so their cost counts there).
func (c *controller) run(seconds int, traced bool, enter, leave func()) {
	start := time.Now()
	end := start.Add(time.Duration(seconds) * time.Second)
	if !traced {
		c.mode.Store(modeUntraced)
		time.Sleep(time.Until(end))
		c.mode.Store(modeDone)
		c.dur[modeUntraced] = time.Since(start)
		return
	}
	m := int32(modeUntraced)
	for {
		now := time.Now()
		if !now.Before(end) {
			break
		}
		if m == modeTraced {
			enter()
		}
		c.mode.Store(m)
		time.Sleep(min(end.Sub(now), sliceLen))
		if m == modeTraced {
			leave()
		}
		c.dur[m] += time.Since(now)
		m ^= 1
	}
	c.mode.Store(modeDone)
}

// procSample is the process-wide resource counters at one instant.
type procSample struct {
	cpu                   time.Duration
	allocObjs, allocBytes uint64
	gcCycles              uint64
}

var procMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return procSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocObjs:  s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
	}
}

// heapPeak samples the Go heap in use until stopped and keeps the
// largest value seen.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) end() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// valuePattern is the value body internal/workload streams write after
// their 8-byte stamp; preloaded values use it too.
var valuePattern = func() []byte {
	b := make([]byte, valueSize)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}()

func stampOf(v []byte) uint64 { return binary.BigEndian.Uint64(v[:8]) }

// valueOK reports whether v is the value written with stamp.
func valueOK(v []byte, stamp uint64) bool {
	return len(v) == valueSize && stampOf(v) == stamp && bytes.Equal(v[8:], valuePattern[8:])
}

// preload writes every key once, in batches, and returns the shadow:
// the stamp of each key's value, indexed by key.
func preload(keys uint64, seed int64, apply func(keys, vals [][]byte) error) ([]uint64, error) {
	shadow := make([]uint64, keys)
	rng := rand.New(rand.NewSource(seed))
	const batch = 1000
	ks := make([][]byte, 0, batch)
	vs := make([][]byte, 0, batch)
	for i := uint64(0); i < keys; i++ {
		k := make([]byte, keySize)
		workload.EncodeKey(k, i)
		v := append([]byte(nil), valuePattern...)
		shadow[i] = rng.Uint64()
		binary.BigEndian.PutUint64(v, shadow[i])
		ks, vs = append(ks, k), append(vs, v)
		if len(ks) == batch || i == keys-1 {
			if err := apply(ks, vs); err != nil {
				return nil, fmt.Errorf("preload: %w", err)
			}
			ks, vs = ks[:0], vs[:0]
		}
	}
	return shadow, nil
}

// settle flushes, compacts every pending level (TRIAD-DISK deferrals
// included, so every run starts from an empty L0), and then waits until
// the store is quiet, so no preload debt leaks into the timed phase.
func settle(flush, compactAll func() error, met func() engmetrics.Snapshot, levels func() []int, pool *bgsched.Pool) error {
	if err := flush(); err != nil {
		return fmt.Errorf("settle: flush: %w", err)
	}
	if err := compactAll(); err != nil {
		return fmt.Errorf("settle: compact: %w", err)
	}
	return quiesce(met, levels, pool)
}

// quiesce waits until the background pool is idle and the flush,
// compaction and level-shape counters have stopped moving.
func quiesce(met func() engmetrics.Snapshot, levels func() []int, pool *bgsched.Pool) error {
	deadline := time.Now().Add(120 * time.Second)
	last, quiet := "", 0
	for quiet < 3 {
		if time.Now().After(deadline) {
			return fmt.Errorf("quiesce: background work did not drain")
		}
		time.Sleep(20 * time.Millisecond)
		m := met()
		st := pool.Stats()
		sig := fmt.Sprint(m.Flushes, m.Compactions, m.CompactionsDeferred, levels())
		if st.Busy == 0 && st.QueuedTotal() == 0 && sig == last {
			quiet++
		} else {
			quiet = 0
		}
		last = sig
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setUp sets a store up reps times, closing all but the last, and
// returns the last with its shadow and every set-up's wall time. Each
// set-up starts from a collected heap.
func setUp[S interface{ close() error }](reps int, open func() (S, []uint64, error)) (st S, shadow []uint64, secs []float64, err error) {
	for r := 0; r < reps; r++ {
		if r > 0 {
			if err := st.close(); err != nil {
				return st, nil, nil, fmt.Errorf("close: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		st, shadow, err = open()
		if err != nil {
			return st, nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return st, shadow, secs, nil
}

// probe is how measure reads the store under test.
type probe struct {
	rec      *ioRecorder
	resident func() int64
	metrics  func() engmetrics.Snapshot
	cache    func() sstable.CacheStats
	// tail runs after an untraced phase: it continues the phase's
	// operations, untimed, to the end of a compaction cycle.
	tail func() (opStats, error)
}

// measure runs the timed phase: clients drives the store until the
// controller says done and returns their merged counts. In a traced run
// leave, if set, runs at the end of every traced slice.
func measure(cfg runConfig, p probe, w *window, leave func(), clients func(*controller) ([numModes]opStats, error)) error {
	ctl := &controller{}
	var ioT0 ioSnap
	traceEnter := func() {
		ioT0 = p.rec.c.snap()
		p.rec.timing.Store(true)
	}
	traceLeave := func() {
		if leave != nil {
			leave()
		}
		p.rec.timing.Store(false)
		w.ioTraced = w.ioTraced.add(p.rec.c.snap().sub(ioT0))
	}

	runtime.GC()
	w.userBytes = int64(cfg.spec.keys) * recordBytes
	io0, eng0, cache0 := p.rec.c.snap(), p.metrics(), p.cache()
	proc0 := sampleProc()
	hp := startHeapPeak()
	var (
		stats [numModes]opStats
		err   error
		done  = make(chan struct{})
	)
	go func() {
		defer close(done)
		stats, err = clients(ctl)
	}()
	ctl.run(cfg.seconds, cfg.traced, traceEnter, traceLeave)
	<-done
	w.proc = procDelta(sampleProc(), proc0)
	w.heapPeak = hp.end()
	w.stats = stats
	w.dur = ctl.dur
	w.io = p.rec.c.snap().sub(io0)
	w.eng = p.metrics().Sub(eng0)
	w.cache = cacheDelta(p.cache(), cache0)
	w.resident = p.resident()
	if err != nil || cfg.traced {
		return err
	}
	ioEnd := p.rec.c.snap()
	w.tail, err = p.tail()
	w.ioTail = p.rec.c.snap().sub(ioEnd)
	w.resident = p.resident()
	return err
}
