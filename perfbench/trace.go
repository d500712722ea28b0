package main

import (
	"bufio"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// layerAcc accumulates traced self time per layer. Root times come
// from the benchmark's own clock around every traced operation; layer
// self times come from a sample of traced operations (every one for
// the embedded engine, the server's retained trace ring for RESP).
type layerAcc struct {
	rootOps int64
	rootNs  int64
	samples int64
	self    map[string]int64
	// raw span totals behind the per-layer metrics.
	writes, gets          int64 // sampled operations by kind
	walNs, memNs          int64
	sstNs, sstSpans       int64
	fgReadNs, fgReadCalls int64 // foreground filesystem reads on Gets
	spanNs                map[string]int64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{self: map[string]int64{}, spanNs: map[string]int64{}}
}

func (a *layerAcc) selfPerOp() map[string]float64 {
	out := map[string]float64{}
	for k, v := range a.self {
		out[k] = us(time.Duration(v)) / float64(max(a.samples, 1))
	}
	return out
}

func (a *layerAcc) rootMeanUS() float64 {
	return us(time.Duration(a.rootNs)) / float64(max(a.rootOps, 1))
}

// attributed is the share of the mean traced operation covered by
// named layer spans.
func (a *layerAcc) attributed() float64 {
	var s float64
	for _, v := range a.selfPerOp() {
		s += v
	}
	if r := a.rootMeanUS(); r > 0 {
		return s / r
	}
	return 0
}

// addEmbedded charges one traced embedded operation. The engine's
// wal_append, memtable_apply and sstable_read spans are children of
// the operation; the calling thread's filesystem writes and syncs are
// children of wal_append and its reads children of sstable_read, as
// far as those spans cover them (the rest, such as a TRIAD-MEM log
// rewrite on the write path, is charged to the operation directly).
func (a *layerAcc) addEmbedded(read bool, root time.Duration, spans []obs.Span, io threadIOSnap) {
	var wal, mem, sst, nsst int64
	for _, s := range spans {
		switch s.Kind {
		case obs.SpanWALAppend:
			wal += int64(s.Dur)
		case obs.SpanMemtableApply:
			mem += int64(s.Dur)
		case obs.SpanSSTableRead:
			sst += int64(s.Dur)
			nsst++
		}
	}
	underWal := min(io.writeNs+io.syncNs, wal)
	underSst := min(io.readNs, sst)
	a.self["wal_append"] += wal - underWal
	a.self["memtable_apply"] += mem
	a.self["sstable_read"] += sst - underSst
	a.self["vfs_write"] += io.writeNs
	a.self["vfs_sync"] += io.syncNs
	a.self["vfs_read"] += io.readNs
	a.rootOps++
	a.rootNs += int64(root)
	a.samples++
	if read {
		a.gets++
		a.fgReadNs += io.readNs
		a.fgReadCalls += io.readCalls
	} else {
		a.writes++
	}
	a.walNs += wal
	a.memNs += mem
	a.sstNs += sst
	a.sstSpans += nsst
}

// collectTraces reads the traced server's retained traces newer than
// maxID through its /debug/trace surface and charges them to the layer
// breakdown; it returns the highest trace id seen.
func collectTraces(srv *server.Server, proxy *storeProxy, a *layerAcc, maxID uint64) uint64 {
	rr := httptest.NewRecorder()
	srv.MetricsHandler(false).ServeHTTP(rr, httptest.NewRequest("GET", fmt.Sprintf("/debug/trace?n=%d", traceKeep), nil))
	next := maxID
	var (
		id    uint64
		cmd   string
		spans map[string]time.Duration
		nsst  int64
	)
	flushTrace := func() {
		if spans != nil && id > maxID {
			a.addServer(cmd, spans, nsst, proxy.take(id))
		}
		spans = nil
	}
	sc := bufio.NewScanner(rr.Body)
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "# ") && len(f) >= 3:
			flushTrace()
			n, err := strconv.ParseUint(f[0][1:], 10, 64)
			if err != nil {
				continue
			}
			id, cmd, spans, nsst = n, f[2], map[string]time.Duration{}, 0
			next = max(next, id)
		case strings.HasPrefix(line, "  +") && len(f) >= 3 && spans != nil:
			if d, err := time.ParseDuration(f[2]); err == nil {
				spans[f[1]] += d
				if f[1] == "sstable_read" {
					nsst++
				}
			}
		}
	}
	flushTrace()
	proxy.prune(next)
	return next
}

// addServer charges one server trace. Server spans are children of the
// client's operation; wal_append and memtable_apply are children of
// commit; the proxy's Get is the parent of sstable_read, which is the
// parent of the Get thread's filesystem reads.
func (a *layerAcc) addServer(cmd string, spans map[string]time.Duration, nsst int64, g getRec) {
	for k, d := range spans {
		a.spanNs[k] += int64(d)
	}
	wal, mem, commit := spans["wal_append"], spans["memtable_apply"], spans["commit"]
	if wal+mem > commit && wal+mem > 0 {
		// Shards of one group commit in parallel, so their engine spans
		// can overlap; scale them into the commit they ran inside.
		f := float64(commit) / float64(wal+mem)
		wal, mem = time.Duration(float64(wal)*f), time.Duration(float64(mem)*f)
	}
	sst := spans["sstable_read"]
	fsRead := time.Duration(g.readNs)
	underSst := min(fsRead, sst)
	for _, k := range []string{"decode", "barrier", "coalesce", "epoch_wait", "reply_flush"} {
		a.self[k] += int64(spans[k])
	}
	a.self["commit"] += int64(commit - wal - mem)
	a.self["wal_append"] += int64(wal)
	a.self["memtable_apply"] += int64(mem)
	a.self["shard_get"] += int64(max(0, g.dur-sst-(fsRead-underSst)))
	a.self["sstable_read"] += int64(sst - underSst)
	a.self["vfs_read"] += int64(fsRead)
	a.samples++
	a.sstNs += int64(sst)
	a.sstSpans += nsst
	switch cmd {
	case "GET":
		a.gets++
		a.fgReadNs += g.readNs
		a.fgReadCalls += g.readCalls
	case "SET":
		a.writes++
		a.walNs += int64(spans["wal_append"])
		a.memNs += int64(spans["memtable_apply"])
	}
}
