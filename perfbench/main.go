// Command perfbench is the repository's benchmark. It runs one named
// workload against the TRIAD store for a fixed time and prints, as the
// last line of its output, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1).
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload embed_update_skew --seed 1 --seconds 20 --trace 0
//
// Every operation stream comes from internal/workload, seeded by
// --seed; the store sees only the generated keys and values. Every read
// is checked against a shadow copy of the last acknowledged value of
// its key, and a run with any error or wrong result exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// spec describes one workload.
type spec struct {
	name     string
	why      string
	server   bool    // RESP over loopback instead of the embedded engine
	syncWAL  bool    // SyncWAL on a simulated SSD, else no syncs and no device time
	keys     uint64  // key space, all preloaded
	readFrac float64 // share of Gets in the mix
	clients  int     // client goroutines (embedded) or connections (RESP)
	depth    int     // RESP pipeline depth per connection
	cache    int64   // block cache bytes (embedded; 0 = none)
	shards   int     // RESP store shards
}

var specs = []spec{
	{
		name:     "embed_update_skew",
		why:      "embedded engine, 90% Put over WS2: flush, compaction and TRIAD-MEM/DISK/LOG do most of the work",
		keys:     500_000,
		readFrac: 0.10,
		clients:  1,
	},
	{
		name:     "embed_read_skew",
		why:      "embedded engine, 95% Get over WS2 with a 16 MiB cache under 8x more table data: sstable reads and cache dominate",
		keys:     500_000,
		readFrac: 0.95,
		clients:  1,
		cache:    16 << 20,
	},
	{
		name:     "resp_mixed",
		why:      "RESP server on 2 shards, 50% SET over WS2: decode, read-your-writes barrier, group commit and reply flush dominate",
		server:   true,
		keys:     500_000,
		readFrac: 0.50,
		clients:  2,
		depth:    16,
		shards:   2,
	},
	{
		name:     "resp_durable",
		why:      "RESP server with SyncWAL on one simulated SSD, 90% SET: a commit-log sync per append sits on the write path",
		server:   true,
		syncWAL:  true,
		keys:     500_000,
		readFrac: 0.10,
		clients:  2,
		depth:    16,
		shards:   2,
	},
}

// recordBytes is the paper's record shape: 8 B keys, 255 B values.
const (
	keySize     = 8
	valueSize   = 255
	recordBytes = keySize + valueSize
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var w *spec
	for i := range specs {
		if specs[i].name == *name {
			w = &specs[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, s := range specs {
			names = append(names, s.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, ","))
		return 2
	}
	cfg := runConfig{spec: *w, seed: *seed, seconds: *seconds, traced: *trace == 1}
	var (
		out runOutput
		err error
	)
	if w.server {
		out, err = runServer(cfg)
	} else {
		out, err = runEmbedded(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	info := map[string]any{
		"workload":    w.name,
		"why":         w.why,
		"seed":        *seed,
		"seconds":     *seconds,
		"trace":       *trace,
		"nproc":       runtime.NumCPU(),
		"clients":     w.clients,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"fs":          map[bool]string{false: "memfs", true: "memfs on one simulated SSD (harness.SSDModel)"}[w.syncWAL],
		"sync_policy": map[bool]string{false: "none", true: "SyncWAL: a sync per commit-log append"}[w.syncWAL],
		"attempted":   out.attempted,
		"failed":      out.failed,
		"failed_frac": float64(out.failed) / float64(max(out.attempted, 1)),
	}
	for k, v := range out.info {
		info[k] = v
	}
	printJSON(map[string]any{"info": info})
	if out.layers != nil {
		printJSON(map[string]any{"layers": out.layers})
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}
	printJSON(res)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed or read a wrong value\n", w.name, out.failed, out.attempted)
		return 1
	}
	return 0
}

type runConfig struct {
	spec    spec
	seed    int64
	seconds int
	traced  bool
}

// runOutput is what one workload run hands back to main.
type runOutput struct {
	attempted, failed int64
	metrics           map[string]metric
	info              map[string]any
	layers            map[string]any
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and numbers are marshalled
	}
	fmt.Println(string(b))
}
