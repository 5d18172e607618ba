package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"dctraffic/internal/netsim"
	"dctraffic/internal/stats"
	"dctraffic/internal/topology"
)

// referenceReadJSONL is the reader without the canonical-line fast
// path: every record through one json.Decoder. ReadJSONL must match it
// record for record and error for error.
func referenceReadJSONL(r io.Reader) ([]FlowRecord, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var out []FlowRecord
	for n := 0; ; n++ {
		var rec FlowRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decode record %d: %w", n, err)
		}
		out = append(out, rec)
	}
}

// extremeRecords covers every field's range ends, negative values where
// the type allows them, and both Canceled states.
func extremeRecords() []FlowRecord {
	recs := []FlowRecord{
		{},
		{ID: math.MinInt64, Src: math.MinInt, Dst: math.MaxInt, Start: math.MinInt64, End: math.MaxInt64,
			Bytes: math.MinInt64, Tag: netsim.FlowTag{Job: math.MinInt, Phase: math.MaxInt, Vertex: -1}},
		{ID: math.MaxInt64, Src: -1, Dst: -2, SrcPort: math.MaxUint16, DstPort: 1, Start: -1, End: 0,
			Bytes: math.MaxInt64, Tag: netsim.FlowTag{Kind: math.MaxUint8}, Canceled: true},
		{ID: -1, Bytes: 10, Tag: netsim.FlowTag{Job: 7, Phase: 2, Vertex: 31, Kind: netsim.KindShuffle}, Canceled: true},
	}
	rng := stats.NewRNG(42).Fork("jsonl_test")
	for i := 0; i < 200; i++ {
		recs = append(recs, FlowRecord{
			ID:      netsim.FlowID(rng.Uint64()),
			Src:     topology.ServerID(rng.Uint64()),
			Dst:     topology.ServerID(rng.IntN(1000)),
			SrcPort: uint16(rng.Uint64()),
			DstPort: uint16(rng.IntN(10)),
			Start:   netsim.Time(rng.Uint64()),
			End:     netsim.Time(rng.Int64N(1e12)),
			Bytes:   int64(rng.Uint64() >> rng.IntN(64)),
			Tag: netsim.FlowTag{
				Job: int(rng.Uint64()), Phase: rng.IntN(3) - 1, Vertex: int(rng.Uint64() >> 40),
				Kind: netsim.FlowKind(rng.Uint64()),
			},
			Canceled: rng.Bool(0.5),
		})
	}
	return recs
}

// TestWriterLinesTakeFastPath: every line Writer emits is canonical and
// parses back to the record that produced it.
func TestWriterLinesTakeFastPath(t *testing.T) {
	recs := extremeRecords()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	if last := lines[len(lines)-1]; len(last) != 0 {
		t.Fatalf("output does not end in a newline: %q", last)
	}
	lines = lines[:len(lines)-1]
	if len(lines) != len(recs) {
		t.Fatalf("%d lines for %d records", len(lines), len(recs))
	}
	for i, line := range lines {
		var got FlowRecord
		if !parseLine(line, &got) {
			t.Fatalf("record %d: Writer line not canonical: %s", i, line)
		}
		if got != recs[i] {
			t.Fatalf("record %d: parsed %+v, wrote %+v", i, got, recs[i])
		}
	}
}

// TestParseLineRejects pins the grammar's edges: each line is one
// canonical line with one change, and the fast path must refuse it.
func TestParseLineRejects(t *testing.T) {
	const canon = `{"id":1,"src":2,"dst":3,"sport":4,"dport":5,"start":6,"end":7,"bytes":8,"tag":{"Job":9,"Phase":10,"Vertex":11,"Kind":12}}` + "\n"
	var rec FlowRecord
	if !parseLine([]byte(canon), &rec) {
		t.Fatal("canonical line rejected")
	}
	for _, c := range []struct{ name, old, new string }{
		{"minus zero", `"id":1`, `"id":-0`},
		{"leading zero", `"id":1`, `"id":01`},
		{"plus sign", `"id":1`, `"id":+1`},
		{"fraction", `"id":1`, `"id":1.0`},
		{"exponent", `"id":1`, `"id":1e3`},
		{"empty number", `"id":1`, `"id":`},
		{"string value", `"id":1`, `"id":"1"`},
		{"negative port", `"sport":4`, `"sport":-1`},
		{"port overflow", `"sport":4`, `"sport":70000`},
		{"kind overflow", `"Kind":12`, `"Kind":256`},
		{"int64 overflow", `"bytes":8`, `"bytes":9223372036854775808`},
		{"int64 underflow", `"bytes":8`, `"bytes":-9223372036854775809`},
		{"20 digits", `"bytes":8`, `"bytes":10000000000000000000`},
		{"uint64 wrap", `"bytes":8`, `"bytes":18446744073709551617`},
		{"space after colon", `"id":1`, `"id": 1`},
		{"space after comma", `,"src"`, `, "src"`},
		{"leading space", `{"id"`, ` {"id"`},
		{"CRLF", "}}\n", "}}\r\n"},
		{"no newline", "}}\n", "}}"},
		{"trailing garbage", "}}\n", "}} \n"},
		{"canceled false", "}}\n", `},"canceled":false}` + "\n"},
		{"key case", `"id"`, `"ID"`},
		{"reordered keys", `"src":2,"dst":3`, `"dst":3,"src":2`},
		{"extra key", `"bytes":8`, `"bytes":8,"x":1`},
		{"missing key", `"dport":5,`, ``},
		{"two records", "}}\n", "}}{}\n"},
	} {
		line := strings.Replace(canon, c.old, c.new, 1)
		if line == canon {
			t.Fatalf("%s: replacement did not apply", c.name)
		}
		rec = FlowRecord{ID: 99}
		if parseLine([]byte(line), &rec) {
			t.Errorf("%s: fast path accepted %q", c.name, line)
		}
		if rec != (FlowRecord{ID: 99}) {
			t.Errorf("%s: rejected line modified the record", c.name)
		}
	}
}

// TestReaderReadErrorMatchesReference: a read error from the underlying
// reader surfaces at the same record, with the same text, as it does
// through a plain json.Decoder — whether the reader keeps failing or
// fails once and then delivers the rest of the data.
func TestReaderReadErrorMatchesReference(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleRecords(3)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	boom := errors.New("boom")
	for _, cut := range []int{0, len(data) / 2, len(data) - 1, len(data)} {
		for _, once := range []bool{false, true} {
			in := func() io.Reader {
				if once {
					return io.MultiReader(bytes.NewReader(data[:cut]), &failOnce{err: boom}, bytes.NewReader(data[cut:]))
				}
				return io.MultiReader(bytes.NewReader(data[:cut]), iotest.ErrReader(boom))
			}
			got, gotErr := ReadJSONL(in())
			want, wantErr := referenceReadJSONL(in())
			checkSameRead(t, got, gotErr, want, wantErr)
			if !errors.Is(gotErr, boom) {
				t.Fatalf("cut %d, once %v: error %v does not wrap the read error", cut, once, gotErr)
			}
		}
	}
}

// failOnce fails its first read with err and reports EOF after that.
type failOnce struct {
	err  error
	done bool
}

func (f *failOnce) Read([]byte) (int, error) {
	if f.done {
		return 0, io.EOF
	}
	f.done = true
	return 0, f.err
}

func checkSameRead(t *testing.T, got []FlowRecord, gotErr error, want []FlowRecord, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("error %q, reference %q", fmt.Sprint(gotErr), fmt.Sprint(wantErr))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("records differ from reference:\n got  %+v\n want %+v", got, want)
	}
}

// FuzzReadJSONL checks ReadJSONL against the json.Decoder reference on
// arbitrary input: same records, same error text at the same record
// index, and never a panic.
func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleRecords(3)); err != nil {
		f.Fatal(err)
	}
	canon := bytes.Clone(buf.Bytes())
	f.Add(canon)
	f.Add([]byte(""))
	f.Add([]byte("{\"id\":1}\n{bad"))
	f.Add([]byte("null\nnull\n"))

	buf.Reset()
	if err := WriteJSONL(&buf, extremeRecords()[:4]); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes())) // extreme values and canceled records

	first, _, _ := bytes.Cut(canon, []byte("\n"))
	variant := func(old, new string) []byte {
		line := bytes.Replace(first, []byte(old), []byte(new), 1)
		if bytes.Equal(line, first) {
			f.Fatalf("seed replacement %q did not apply", old)
		}
		// Canonical lines around it: the fallback starts mid-stream.
		return slices.Concat(canon, line, []byte("\n"), canon)
	}
	f.Add(variant(`"id":0,"src":0`, `"src":0,"id":0`))
	f.Add(variant(`,"dst"`, ` , "dst" `))
	f.Add(variant("}}", "}}\r"))
	f.Add(variant("}}", `},"canceled":false}`))
	f.Add(variant(`"id":0`, `"id":-0`))
	f.Add(variant(`"id":0`, `"id":00`))
	f.Add(variant(`"sport":1024`, `"sport":70000`))
	f.Add(variant(`"Kind":1`, `"Kind":256`))
	f.Add(variant(`"bytes":1000`, `"bytes":9223372036854775808`))
	f.Add(variant(`"bytes":1000`, `"bytes":18446744073709551617`))
	f.Add(variant(`,"start"`, ",\n\"start\"")) // a record split across lines
	f.Add(canon[:len(canon)-1])                // missing final newline
	f.Add(canon[:len(canon)-20])               // truncated mid-record
	pretty, err := json.MarshalIndent(sampleRecords(2), "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	pretty = bytes.TrimSuffix(bytes.TrimPrefix(pretty, []byte("[")), []byte("]"))
	pretty = bytes.Replace(pretty, []byte("},"), []byte("}"), 1)
	f.Add(append(bytes.Clone(canon), pretty...))                    // canonical prefix, then pretty-printed
	f.Add(variant(`,"src"`, ","+strings.Repeat(" ", 5000)+`"src"`)) // longer than the read buffer
	f.Add(append([]byte("\n\n"), canon...))                         // blank lines
	f.Add(append(bytes.Clone(canon), " \n\t\n"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := ReadJSONL(bytes.NewReader(data))
		want, wantErr := referenceReadJSONL(bytes.NewReader(data))
		checkSameRead(t, got, gotErr, want, wantErr)
	})
}

// TestAppendLineMatchesEncoder pins the encoder to encoding/json: over
// the extreme and random records, each line, the whole Writer stream
// and the gzip byte counts are what a json.Encoder produces.
func TestAppendLineMatchesEncoder(t *testing.T) {
	recs := extremeRecords()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i := range recs {
		start := want.Len()
		if err := enc.Encode(&recs[i]); err != nil {
			t.Fatal(err)
		}
		if got := appendLine(nil, &recs[i]); !bytes.Equal(got, want.Bytes()[start:]) {
			t.Fatalf("record %d: appendLine = %q, json.Encoder = %q", i, got, want.Bytes()[start:])
		}
	}
	var got bytes.Buffer
	if err := WriteJSONL(&got, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteJSONL output differs from json.Encoder")
	}

	// The gzip stream, and so the measured compression ratio, is the
	// one json.Encoder's writes (one per record) produce.
	var refComp bytes.Buffer
	gz := gzip.NewWriter(&refComp)
	enc = json.NewEncoder(gz)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	var comp bytes.Buffer
	raw, n, err := WriteJSONLGz(&comp, recs)
	if err != nil {
		t.Fatal(err)
	}
	if raw != int64(want.Len()) || n != int64(refComp.Len()) || !bytes.Equal(comp.Bytes(), refComp.Bytes()) {
		t.Fatalf("WriteJSONLGz raw=%d comp=%d, json.Encoder raw=%d comp=%d", raw, n, want.Len(), refComp.Len())
	}
}

// FuzzAppendLine checks appendLine against json.Marshal on arbitrary
// field values.
func FuzzAppendLine(f *testing.F) {
	for _, r := range extremeRecords()[:4] {
		f.Add(int64(r.ID), int64(r.Src), int64(r.Dst), r.SrcPort, r.DstPort, int64(r.Start), int64(r.End),
			r.Bytes, int64(r.Tag.Job), int64(r.Tag.Phase), int64(r.Tag.Vertex), uint8(r.Tag.Kind), r.Canceled)
	}
	f.Fuzz(func(t *testing.T, id, src, dst int64, sport, dport uint16, start, end, nbytes, job, phase, vertex int64, kind uint8, canceled bool) {
		r := FlowRecord{
			ID: netsim.FlowID(id), Src: topology.ServerID(src), Dst: topology.ServerID(dst),
			SrcPort: sport, DstPort: dport, Start: netsim.Time(start), End: netsim.Time(end), Bytes: nbytes,
			Tag:      netsim.FlowTag{Job: int(job), Phase: int(phase), Vertex: int(vertex), Kind: netsim.FlowKind(kind)},
			Canceled: canceled,
		}
		want, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got := appendLine([]byte("prefix"), &r)
		if string(got) != "prefix"+string(want) {
			t.Fatalf("appendLine = %q, json.Marshal = %q", got[len("prefix"):], want)
		}
		var back FlowRecord
		if !parseLine(got[len("prefix"):], &back) || back != r {
			t.Fatalf("parseLine(appendLine(r)) = %+v, want %+v", back, r)
		}
	})
}
