package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/lsm"
	"repro/internal/workload"
)

// tailDeadline bounds how long a tail may wait for its merges.
const tailDeadline = 45 * time.Second

// keyStream is one client's operation stream; its keys are offset by
// off into the client's slice of the key space.
type keyStream struct {
	s   *workload.Stream
	off uint64
}

// tailTarget is the store a tail drives: its engines, which of them
// owns a key, and the calls that read and write it.
type tailTarget struct {
	engines []*lsm.DB
	route   func(key []byte) int // nil: one engine
	get     func(key []byte) ([]byte, error)
	put     func(key, value []byte) error
	quiesce func() error
}

// cycleTail closes each engine's last compaction cycle after an
// untraced phase. An engine's L0 is merged into L1 all at once, and a
// merge with the cascade it starts rewrites tens of MB. A 20 s
// embed_read_skew phase holds only one or two of them, and its end
// cuts the cycle of every engine somewhere, so bytes written over a
// fixed time jump with throughput, and the FS size at the end swings
// with where the cut fell. The tail keeps running the phase's streams,
// untimed, each op going to its owning engine until that engine's next
// merge out of L0 installs (an engine with an empty L0 is already at
// the end of a cycle), and then lets the background work drain.
// write_amp counts the tail's writes and bytes with the phase's, and
// space_amp is read after it, so both see whole cycles only.
func cycleTail(t tailTarget, streams []keyStream, shadow []uint64) (opStats, error) {
	var s opStats
	l0 := make([]int, len(t.engines))
	open := 0 // engines whose cycle is still running
	for i, e := range t.engines {
		if l0[i] = e.NumLevelFiles()[0]; l0[i] > 0 {
			open++
		}
	}
	t0 := time.Now()
	key := make([]byte, keySize)
	for open > 0 {
		if time.Since(t0) > tailDeadline {
			return s, fmt.Errorf("tail: L0 was not compacted within %v", tailDeadline)
		}
		for i := 0; i < 64; i++ {
			ks := streams[i%len(streams)]
			op := ks.s.Next()
			idx := binary.BigEndian.Uint64(op.Key) + ks.off
			workload.EncodeKey(key, idx)
			if t.route != nil && l0[t.route(key)] == 0 {
				continue
			}
			var (
				v   []byte
				err error
			)
			if op.Read {
				s.reads++
				v, err = t.get(key)
			} else {
				s.writes++
				err = t.put(key, op.Value)
			}
			check(&s, op, v, err, &shadow[idx])
		}
		for i, e := range t.engines {
			if l0[i] == 0 {
				continue
			}
			if n := e.NumLevelFiles()[0]; n < l0[i] {
				l0[i] = 0
				open--
			} else {
				l0[i] = n
			}
		}
	}
	return s, t.quiesce()
}

// check counts a failed or wrong operation, and after an acknowledged
// write updates the key's shadow stamp.
func check(s *opStats, op workload.Op, v []byte, err error, stamp *uint64) {
	switch {
	case err != nil:
		s.failed++
	case op.Read:
		if !valueOK(v, *stamp) {
			s.failed++
		}
	default:
		*stamp = stampOf(op.Value)
	}
}
