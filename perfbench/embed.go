package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/bgsched"
	"repro/internal/lsm"
	"repro/internal/obs"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// embedStore is one embedded TRIAD engine on a counted MemFS, opened
// exactly as triad.Open opens an unsharded ProfileTriad store
// (lsm.TriadOptions plus a private background pool), but through the
// layer below triad so traced runs can reach GetTraced and
// CommitAtTraced.
type embedStore struct {
	db   *lsm.DB
	pool *bgsched.Pool
	fs   *countingFS
	rec  *ioRecorder
}

func (s *embedStore) close() error {
	err := s.db.Close()
	s.pool.Close()
	return err
}

func setupEmbedded(cfg runConfig) (*embedStore, []uint64, error) {
	sp := cfg.spec
	rec := &ioRecorder{}
	fs := rec.wrap(vfs.NewMemFS())
	opts := lsm.TriadOptions(fs)
	opts.BlockCacheBytes = sp.cache
	pool := bgsched.NewPool(bgsched.DefaultWorkers(1))
	opts.Scheduler = pool
	db, err := lsm.Open(opts)
	if err != nil {
		pool.Close()
		return nil, nil, fmt.Errorf("open: %w", err)
	}
	st := &embedStore{db: db, pool: pool, fs: fs, rec: rec}
	shadow, err := preload(sp.keys, preloadSeed(cfg.seed), func(ks, vs [][]byte) error {
		var b lsm.Batch
		for i := range ks {
			b.Put(ks[i], vs[i])
		}
		return db.Apply(&b)
	})
	if err == nil {
		err = settle(db.Flush, db.CompactAll, db.Metrics, db.NumLevelFiles, pool)
	}
	if err != nil {
		st.close()
		return nil, nil, err
	}
	return st, shadow, nil
}

// preloadSeed derives the preload's value stamps from the workload seed
// so they never coincide with the operation stream's.
func preloadSeed(seed int64) int64 { return seed*7919 + 17 }

func runEmbedded(cfg runConfig) (runOutput, error) {
	st, shadow, setupS, err := setUp(cfg.reps(), func() (*embedStore, []uint64, error) { return setupEmbedded(cfg) })
	if err != nil {
		return runOutput{}, err
	}
	w, err := measureEmbedded(cfg, st, shadow)
	if err != nil {
		st.close()
		return runOutput{}, err
	}
	w.setupS = setupS
	if err := st.close(); err != nil {
		return runOutput{}, fmt.Errorf("close: %w", err)
	}
	return finish(cfg, w), nil
}

func hotCold(keys uint64) workload.HotCold {
	return workload.HotCold{N: keys, HotFraction: 0.20, HotAccess: 0.80}
}

func measureEmbedded(cfg runConfig, st *embedStore, shadow []uint64) (*window, error) {
	sp := cfg.spec
	stream := workload.Mix{Dist: hotCold(sp.keys), ReadFraction: sp.readFrac}.NewStream(cfg.seed)
	w := &window{layers: newLayerAcc()}
	p := probe{rec: st.rec, resident: st.fs.resident, metrics: st.db.Metrics, cache: st.db.BlockCacheStats,
		tail: func() (opStats, error) {
			return cycleTail(tailTarget{
				engines: []*lsm.DB{st.db},
				get:     st.db.Get,
				put:     st.db.Put,
				quiesce: func() error { return quiesce(st.db.Metrics, st.db.NumLevelFiles, st.pool) },
			}, []keyStream{{s: stream}}, shadow)
		}}
	err := measure(cfg, p, w, nil, func(ctl *controller) ([numModes]opStats, error) {
		return embedClient(st, ctl, stream, shadow, cfg.traced, w.layers), nil
	})
	return w, err
}

// embedClient is the single closed-loop client of an embedded
// workload: it issues the next operation when the previous returns.
func embedClient(st *embedStore, ctl *controller, stream *workload.Stream, shadow []uint64, traced bool, layers *layerAcc) (stats [numModes]opStats) {
	db := st.db
	var slot *threadIO
	if traced {
		slot = st.rec.pin()
		defer st.rec.unpin(slot)
	}
	tracer := obs.NewTracer(1, 1)
	var (
		b    lsm.Batch
		seq  uint64
		last int32 = -1
	)
	for {
		m := ctl.mode.Load()
		if m == modeDone {
			return stats
		}
		if m != last && m == modeTraced {
			// Traced writes commit at explicit sequence numbers; this
			// goroutine is the only writer, so it can continue the
			// engine's own sequence.
			seq = db.LastSeq()
		}
		last = m
		op := stream.Next()
		idx := binary.BigEndian.Uint64(op.Key)
		s := &stats[m]
		var (
			tr  *obs.Trace
			io0 threadIOSnap
			v   []byte
			err error
		)
		t0 := time.Now()
		if m == modeTraced {
			tr = tracer.Start("op", nil, t0)
			io0 = slot.snap()
		}
		switch {
		case op.Read && tr == nil:
			v, err = db.Get(op.Key)
		case op.Read:
			v, err = db.GetTraced(op.Key, tr)
		case tr == nil:
			err = db.Put(op.Key, op.Value)
		default:
			seq++
			b.Reset()
			b.Put(op.Key, op.Value)
			err = db.CommitAtTraced(seq, &b, obs.Traces{tr})
		}
		d := time.Since(t0)
		s.record(op.Read, d)
		check(s, op, v, err, &shadow[idx])
		if tr != nil {
			layers.addEmbedded(op.Read, d, tr.Spans(), slot.snap().sub(io0))
		}
	}
}
