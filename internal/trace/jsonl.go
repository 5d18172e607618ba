package trace

import (
	"math"
	"strconv"

	"dctraffic/internal/netsim"
	"dctraffic/internal/topology"
)

// The canonical trace line is what Writer emits for one record:
//
//	{"id":I,"src":I,"dst":I,"sport":U,"dport":U,"start":I,"end":I,"bytes":I,"tag":{"Job":I,"Phase":I,"Vertex":I,"Kind":U}}
//
// with `,"canceled":true` before the final brace for a canceled record,
// no whitespace, and a terminating newline. I and U are JSON integers
// (no leading zero, no fraction or exponent, and no "-0"); U is
// unsigned; each is in range for its field's Go type. appendLine
// writes exactly these lines, the bytes json.Encoder would write, and
// parseLine decodes exactly these lines into the record encoding/json
// would produce, both without reflection. Reader hands any other line,
// and the rest of the stream after it, to a json.Decoder, so the fast
// path changes no record and no error.

// appendLine appends rec's canonical line, newline included, to b. It
// is the inverse of parseLine.
func appendLine(b []byte, rec *FlowRecord) []byte {
	b = strconv.AppendInt(append(b, `{"id":`...), int64(rec.ID), 10)
	b = strconv.AppendInt(append(b, `,"src":`...), int64(rec.Src), 10)
	b = strconv.AppendInt(append(b, `,"dst":`...), int64(rec.Dst), 10)
	b = strconv.AppendUint(append(b, `,"sport":`...), uint64(rec.SrcPort), 10)
	b = strconv.AppendUint(append(b, `,"dport":`...), uint64(rec.DstPort), 10)
	b = strconv.AppendInt(append(b, `,"start":`...), int64(rec.Start), 10)
	b = strconv.AppendInt(append(b, `,"end":`...), int64(rec.End), 10)
	b = strconv.AppendInt(append(b, `,"bytes":`...), rec.Bytes, 10)
	b = strconv.AppendInt(append(b, `,"tag":{"Job":`...), int64(rec.Tag.Job), 10)
	b = strconv.AppendInt(append(b, `,"Phase":`...), int64(rec.Tag.Phase), 10)
	b = strconv.AppendInt(append(b, `,"Vertex":`...), int64(rec.Tag.Vertex), 10)
	b = strconv.AppendUint(append(b, `,"Kind":`...), uint64(rec.Tag.Kind), 10)
	if rec.Canceled {
		return append(b, `},"canceled":true}`+"\n"...)
	}
	return append(b, "}}\n"...)
}

// parseLine decodes one canonical line, newline included, into rec. It
// reports false, leaving rec untouched, when line is not canonical.
func parseLine(line []byte, rec *FlowRecord) bool {
	p := lineParser{b: line}
	var r FlowRecord
	r.ID = netsim.FlowID(p.field(`{"id":`, math.MinInt64, math.MaxInt64))
	r.Src = topology.ServerID(p.field(`,"src":`, math.MinInt, math.MaxInt))
	r.Dst = topology.ServerID(p.field(`,"dst":`, math.MinInt, math.MaxInt))
	r.SrcPort = uint16(p.field(`,"sport":`, 0, math.MaxUint16))
	r.DstPort = uint16(p.field(`,"dport":`, 0, math.MaxUint16))
	r.Start = netsim.Time(p.field(`,"start":`, math.MinInt64, math.MaxInt64))
	r.End = netsim.Time(p.field(`,"end":`, math.MinInt64, math.MaxInt64))
	r.Bytes = p.field(`,"bytes":`, math.MinInt64, math.MaxInt64)
	r.Tag.Job = int(p.field(`,"tag":{"Job":`, math.MinInt, math.MaxInt))
	r.Tag.Phase = int(p.field(`,"Phase":`, math.MinInt, math.MaxInt))
	r.Tag.Vertex = int(p.field(`,"Vertex":`, math.MinInt, math.MaxInt))
	r.Tag.Kind = netsim.FlowKind(p.field(`,"Kind":`, 0, math.MaxUint8))
	switch {
	case p.bad:
		return false
	case string(p.b) == "}}\n":
	case string(p.b) == `},"canceled":true}`+"\n":
		r.Canceled = true
	default:
		return false
	}
	*rec = r
	return true
}

// lineParser consumes a line left to right. bad latches the first
// mismatch, after which every step is a no-op returning zero.
type lineParser struct {
	b   []byte
	bad bool
}

// field consumes the literal key, then a JSON integer in [lo, hi],
// where lo is 0 (no sign allowed) or negative.
func (p *lineParser) field(key string, lo, hi int64) int64 {
	if p.bad || len(p.b) < len(key) || string(p.b[:len(key)]) != key {
		p.bad = true
		return 0
	}
	b := p.b[len(key):]
	neg := lo < 0 && len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	n := 0
	var mag uint64
	for n < len(b) && '0' <= b[n] && b[n] <= '9' {
		mag = mag*10 + uint64(b[n]-'0')
		n++
	}
	// 19 digits hold every int64 magnitude and cannot wrap a uint64.
	if n == 0 || n > 19 || (b[0] == '0' && (n > 1 || neg)) {
		p.bad = true
		return 0
	}
	p.b = b[n:]
	if neg {
		if mag > uint64(-(lo+1))+1 {
			p.bad = true
			return 0
		}
		return -int64(mag)
	}
	if mag > uint64(hi) {
		p.bad = true
		return 0
	}
	return int64(mag)
}
