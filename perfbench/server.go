package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/harness"
	"repro/internal/lsm"
	"repro/internal/obs"
	"repro/internal/resp"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vfs"
	"repro/internal/workload"
)

// traceKeep is the traced server's trace ring. Each traced slice ends
// by reading the ring, so the layer breakdown samples up to this many
// operations per slice.
const traceKeep = 4096

// serverStore is a sharded TRIAD store behind the RESP server, on
// counted in-memory filesystems. The filesystems outlive a close, so
// the store can be reopened over them and recover from its files.
type serverStore struct {
	db   *shard.DB
	rec  *ioRecorder
	mems []*vfs.MemFS
	fses []*countingFS
}

func (s *serverStore) resident() int64 {
	var n int64
	for _, fs := range s.fses {
		n += fs.resident()
	}
	return n
}

// open opens the store over its filesystems, creating them on first
// use.
func (s *serverStore) open(sp spec, syncWAL bool) error {
	eng := lsm.TriadOptions(nil)
	eng.SyncWAL = syncWAL
	s.fses = nil
	db, err := shard.Open(shard.Options{
		Shards: sp.shards,
		Engine: eng,
		NewFS: func(i int) (vfs.FS, error) {
			if i == len(s.mems) {
				s.mems = append(s.mems, vfs.NewMemFS())
			}
			fs := s.rec.wrap(s.mems[i])
			s.fses = append(s.fses, fs)
			return fs, nil
		},
	})
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	s.db = db
	return nil
}

// setupServerStore opens, preloads and settles the store. A synced
// store is preloaded without syncs or device time, closed, put on one
// simulated SSD shared by all shards (harness.SSDModel), and reopened
// with SyncWAL, which replays its commit logs.
func setupServerStore(cfg runConfig) (*serverStore, []uint64, error) {
	sp := cfg.spec
	st := &serverStore{rec: &ioRecorder{}}
	if err := st.open(sp, false); err != nil {
		return nil, nil, err
	}
	shadow, err := preload(sp.keys, preloadSeed(cfg.seed), func(ks, vs [][]byte) error {
		var b lsm.Batch
		for i := range ks {
			b.Put(ks[i], vs[i])
		}
		return st.db.Apply(&b)
	})
	if err == nil {
		err = settleShards(st.db)
	}
	if err == nil && sp.syncWAL {
		if err = st.db.Close(); err != nil {
			return nil, nil, fmt.Errorf("close: %w", err)
		}
		dev := harness.SSDModel()
		for _, m := range st.mems {
			m.Latency = dev
		}
		if err = st.open(sp, true); err != nil {
			return nil, nil, err
		}
		err = settleShards(st.db)
	}
	if err != nil {
		st.close()
		return nil, nil, err
	}
	return st, shadow, nil
}

func settleShards(db *shard.DB) error {
	return settle(db.Flush, db.CompactAll, db.Metrics, db.NumLevelFiles, db.Scheduler())
}

func (s *serverStore) close() error { return s.db.Close() }

// storeProxy is the traced server's view of the store: it times every
// traced Get from outside the store and charges the filesystem reads
// made on the calling thread to it.
type storeProxy struct {
	*shard.DB
	rec  *ioRecorder
	mu   sync.Mutex
	gets map[uint64]getRec // by trace id
}

type getRec struct {
	dur               time.Duration
	readNs, readCalls int64
}

var _ server.Store = (*storeProxy)(nil)

func (p *storeProxy) GetTraced(key []byte, tr *obs.Trace) ([]byte, error) {
	if tr == nil {
		return p.DB.GetTraced(key, nil)
	}
	slot := p.rec.pin()
	io0 := slot.snap()
	t0 := time.Now()
	v, err := p.DB.GetTraced(key, tr)
	d := time.Since(t0)
	io := slot.snap().sub(io0)
	p.rec.unpin(slot)
	p.mu.Lock()
	p.gets[tr.ID()] = getRec{dur: d, readNs: io.readNs, readCalls: io.readCalls}
	p.mu.Unlock()
	return v, err
}

// take removes and returns the Get record of a trace.
func (p *storeProxy) take(id uint64) getRec {
	p.mu.Lock()
	defer p.mu.Unlock()
	g := p.gets[id]
	delete(p.gets, id)
	return g
}

// prune drops the records of traces at or below id, which the trace
// ring no longer holds.
func (p *storeProxy) prune(id uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := range p.gets {
		if k <= id {
			delete(p.gets, k)
		}
	}
}

// runningServer is one RESP server on a loopback listener.
type runningServer struct {
	srv  *server.Server
	addr string
	done chan error
}

func startServer(store server.Store, cfg server.Config) (*runningServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rs := &runningServer{srv: server.New(store, cfg), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { rs.done <- rs.srv.Serve(ln) }()
	return rs, nil
}

func (rs *runningServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := rs.srv.Shutdown(ctx)
	if e := <-rs.done; err == nil {
		err = e
	}
	return err
}

func (rs *runningServer) groupStats() (batches, ops int64) {
	if rs == nil {
		return 0, 0
	}
	return rs.srv.GroupCommitStats()
}

func runServer(cfg runConfig) (runOutput, error) {
	st, shadow, setupS, err := setUp(cfg.reps(), func() (*serverStore, []uint64, error) { return setupServerStore(cfg) })
	if err != nil {
		return runOutput{}, err
	}
	w, err := measureServer(cfg, st, shadow)
	if err == nil {
		w.setupS = setupS
	}
	verified, bad, verr := verifyStore(cfg, st, shadow)
	if e := st.close(); verr == nil {
		verr = e
	}
	if err == nil {
		err = verr
	}
	if err != nil {
		return runOutput{}, err
	}
	out := finish(cfg, w)
	out.attempted += verified
	out.failed += bad
	out.info["verified_keys"] = verified
	out.info["verify_mismatches"] = bad
	out.info["pipeline_depth"] = cfg.spec.depth
	out.info["shards"] = cfg.spec.shards
	return out, nil
}

// verifyStore reads back every key after the timed phase. A synced
// store is first closed and reopened, so the check covers every
// acknowledged SET surviving recovery.
func verifyStore(cfg runConfig, st *serverStore, shadow []uint64) (verified, bad int64, err error) {
	if cfg.spec.syncWAL {
		if err := st.db.Close(); err != nil {
			return 0, 0, fmt.Errorf("close before verify: %w", err)
		}
		if err := st.open(cfg.spec, true); err != nil {
			return 0, 0, fmt.Errorf("reopen for verify: %w", err)
		}
	}
	key := make([]byte, keySize)
	for i, stamp := range shadow {
		workload.EncodeKey(key, uint64(i))
		v, err := st.db.Get(key)
		verified++
		if err != nil || !valueOK(v, stamp) {
			bad++
		}
	}
	return verified, bad, nil
}

func measureServer(cfg runConfig, st *serverStore, shadow []uint64) (*window, error) {
	sp := cfg.spec
	w := &window{layers: newLayerAcc()}
	plain, err := startServer(st.db, server.Config{})
	if err != nil {
		return nil, err
	}
	servers := []*runningServer{plain}
	addrs := [numModes]string{plain.addr}
	var (
		proxy  *storeProxy
		traced *runningServer
	)
	if cfg.traced {
		proxy = &storeProxy{DB: st.db, rec: st.rec, gets: map[uint64]getRec{}}
		traced, err = startServer(proxy, server.Config{TraceSample: 1, TraceKeep: traceKeep})
		if err != nil {
			plain.stop()
			return nil, err
		}
		servers = append(servers, traced)
		addrs[modeTraced] = traced.addr
	}

	var maxID uint64
	leave := func() { maxID = collectTraces(traced.srv, proxy, w.layers, maxID) }
	apply0 := st.db.ApplyLatency().Snapshot()
	gb0, go0 := plain.groupStats()
	tb0, to0 := traced.groupStats()
	streams := make([]keyStream, sp.clients)
	per := sp.keys / uint64(sp.clients)
	for i := range streams {
		streams[i] = keyStream{
			s:   workload.Mix{Dist: hotCold(per), ReadFraction: sp.readFrac}.NewStream(cfg.seed*31 + int64(i)),
			off: uint64(i) * per,
		}
	}
	engines := make([]*lsm.DB, st.db.NumShards())
	for i := range engines {
		engines[i] = st.db.Shard(i)
	}
	part := st.db.Partitioner()
	p := probe{rec: st.rec, resident: st.resident, metrics: st.db.Metrics, cache: st.db.BlockCacheStats,
		tail: func() (opStats, error) {
			return cycleTail(tailTarget{
				engines: engines,
				route:   func(key []byte) int { return part.Partition(key, len(engines)) },
				get:     st.db.Get,
				put:     st.db.Put,
				quiesce: func() error { return quiesce(st.db.Metrics, st.db.NumLevelFiles, st.db.Scheduler()) },
			}, streams, shadow)
		}}
	err = measure(cfg, p, w, leave, func(ctl *controller) ([numModes]opStats, error) {
		results := make([][numModes]opStats, sp.clients)
		errs := make([]error, sp.clients)
		var wg sync.WaitGroup
		for i := 0; i < sp.clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = respClient(cfg, streams[i], addrs, ctl, shadow)
			}(i)
		}
		wg.Wait()
		var stats [numModes]opStats
		for i := range results {
			stats[modeUntraced].add(&results[i][modeUntraced])
			stats[modeTraced].add(&results[i][modeTraced])
		}
		return stats, errors.Join(errs...)
	})
	w.apply = histDelta(st.db.ApplyLatency().Snapshot(), apply0)
	gb1, go1 := plain.groupStats()
	tb1, to1 := traced.groupStats()
	w.groupBatches = gb1 - gb0 + tb1 - tb0
	w.groupOps = go1 - go0 + to1 - to0
	t := &w.stats[modeTraced]
	w.layers.rootOps = t.ops()
	w.layers.rootNs = int64(t.meanLatency()) * t.ops()
	for _, rs := range servers {
		if e := rs.stop(); err == nil {
			err = e
		}
	}
	return w, err
}

// respClient is one closed-loop connection: it sends a pipeline of
// depth commands, then waits for all their replies before sending the
// next. Each connection's stream owns one slice of the key space, so
// its shadow copy is exact.
func respClient(cfg runConfig, ks keyStream, addrs [numModes]string, ctl *controller, shadow []uint64) (stats [numModes]opStats, err error) {
	sp := cfg.spec
	var conns [numModes]*client.Conn
	for m, addr := range addrs {
		if addr == "" {
			continue
		}
		c, err := client.Dial(addr)
		if err != nil {
			return stats, err
		}
		defer c.Close()
		conns[m] = c
	}
	key := make([]byte, keySize)
	type pending struct {
		read  bool
		idx   uint64
		stamp uint64
		sent  time.Time
	}
	pend := make([]pending, sp.depth)
	for {
		m := ctl.mode.Load()
		if m == modeDone {
			return stats, nil
		}
		c := conns[m]
		for j := range pend {
			op := ks.s.Next()
			idx := binary.BigEndian.Uint64(op.Key) + ks.off
			workload.EncodeKey(key, idx)
			p := pending{read: op.Read, idx: idx, sent: time.Now()}
			if op.Read {
				err = c.Send("GET", key)
			} else {
				p.stamp = stampOf(op.Value)
				err = c.Send("SET", key, op.Value)
			}
			if err != nil {
				return stats, err
			}
			pend[j] = p
		}
		if err := c.Flush(); err != nil {
			return stats, err
		}
		s := &stats[m]
		for _, p := range pend {
			v, err := c.Receive()
			d := time.Since(p.sent)
			var se client.ServerError
			if err != nil && !errors.As(err, &se) {
				return stats, err
			}
			s.record(p.read, d)
			if p.read {
				if err != nil || v.Type != resp.TypeBulk || v.Null || !valueOK(v.Str, shadow[p.idx]) {
					s.failed++
				}
			} else {
				if err != nil {
					s.failed++
				} else {
					shadow[p.idx] = p.stamp
				}
			}
		}
	}
}
