package core

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"dctraffic/internal/netsim"
	"dctraffic/internal/topology"
	"dctraffic/internal/trace"
)

// fuzzRecordSize is the encoded size of one fuzzed flow record:
// src, dst (1 byte each), start delta (int8, ×100 ms), duration
// (int16, ×10 ms) and bytes (int16, ×1 KiB).
const fuzzRecordSize = 7

// fuzzMaxRecords caps the decoded sequence so one input stays fast.
const fuzzMaxRecords = 64

// fuzzTopology is a 2×3 cluster with one external host: seven hosts.
func fuzzTopology(tb testing.TB) *topology.Topology {
	tb.Helper()
	cfg := topology.SmallConfig()
	cfg.Racks, cfg.ServersPerRack = 2, 3
	cfg.AggSwitches, cfg.RacksPerVLAN, cfg.ExternalHosts = 1, 1, 1
	top, err := topology.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return top
}

// decodeFuzzRecords turns fuzz bytes into records in the order they are
// encoded. Endpoints map onto [-1, numHosts], so most are valid but
// both out-of-range sides stay reachable; starts accumulate signed
// deltas, so out-of-order pairs are reachable too.
func decodeFuzzRecords(data []byte, numHosts int) []trace.FlowRecord {
	var recs []trace.FlowRecord
	var start netsim.Time
	for i := 0; len(data) >= fuzzRecordSize && i < fuzzMaxRecords; i++ {
		b := data[:fuzzRecordSize]
		data = data[fuzzRecordSize:]
		start += netsim.Time(int8(b[2])) * 100 * time.Millisecond
		recs = append(recs, trace.FlowRecord{
			ID:    netsim.FlowID(i),
			Src:   topology.ServerID(int(b[0])%(numHosts+2) - 1),
			Dst:   topology.ServerID(int(b[1])%(numHosts+2) - 1),
			Start: start,
			End:   start + netsim.Time(int16(binary.LittleEndian.Uint16(b[3:])))*10*time.Millisecond,
			Bytes: int64(int16(binary.LittleEndian.Uint16(b[5:]))) << 10,
		})
	}
	return recs
}

// encodeFuzzRecord is decodeFuzzRecords' inverse for one record, used
// to build the seed corpus.
func encodeFuzzRecord(src, dst int, startDelta int8, dur, kib int16) []byte {
	b := make([]byte, fuzzRecordSize)
	b[0], b[1] = byte(src+1), byte(dst+1)
	b[2] = byte(startDelta)
	binary.LittleEndian.PutUint16(b[3:], uint16(dur))
	binary.LittleEndian.PutUint16(b[5:], uint16(kib))
	return b
}

// orderedSource delivers records exactly as given, without sorting, so
// the analyzer sees whatever order the fuzzer produced.
type orderedSource struct{ recs []trace.FlowRecord }

func (s *orderedSource) Next() (trace.FlowRecord, error) {
	if len(s.recs) == 0 {
		return trace.FlowRecord{}, io.EOF
	}
	r := s.recs[0]
	s.recs = s.recs[1:]
	return r, nil
}

// FuzzAnalyzeSource feeds short decoded record sequences to the
// trace-only analysis on a small topology. Whatever the input, the
// analysis must return a report or an error: no panic and no hang.
func FuzzAnalyzeSource(f *testing.F) {
	top := fuzzTopology(f)
	h := top.NumHosts()
	valid := [][]byte{
		encodeFuzzRecord(0, 4, 10, 200, 64),
		encodeFuzzRecord(1, 2, 5, 0, 1),
		encodeFuzzRecord(h-1, 3, 100, 3000, 512),
	}
	seed := func(last []byte) []byte {
		var out []byte
		for _, r := range valid {
			out = append(out, r...)
		}
		return append(out, last...)
	}
	f.Add(seed(nil))
	f.Add(seed(encodeFuzzRecord(0, 1, 1, 100, -5)))  // negative bytes
	f.Add(seed(encodeFuzzRecord(h, 1, 1, 100, 8)))   // src outside the topology
	f.Add(seed(encodeFuzzRecord(0, -1, 1, 100, 8)))  // dst negative
	f.Add(seed(encodeFuzzRecord(0, 1, 1, -100, 8)))  // end before start
	f.Add(seed(encodeFuzzRecord(0, 1, -20, 100, 8))) // out of order
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		recs := decodeFuzzRecords(data, h)
		rep, err := AnalyzeSource(ctx, &orderedSource{recs: recs},
			WithTopology(top), WithDuration(time.Minute), WithParallelism(1))
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("analysis of %d records did not finish: %v", len(recs), err)
		}
		if err == nil && rep == nil {
			t.Fatal("nil report without an error")
		}
	})
}
