package trace

import (
	"bytes"
	"io"
	"testing"
)

// BenchmarkWriteJSONL measures trace serialization throughput.
func BenchmarkWriteJSONL(b *testing.B) {
	recs := sampleRecords(10_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteJSONL(io.Discard, recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadJSONL measures trace parsing throughput.
func BenchmarkReadJSONL(b *testing.B) {
	recs := sampleRecords(10_000)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadJSONL(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteBinary measures the spill codec's serialization
// throughput — the recorded number behind replacing JSONL on the
// external-sort spill path.
func BenchmarkWriteBinary(b *testing.B) {
	recs := sampleRecords(10_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteBinary(io.Discard, recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBinary measures the spill codec's parsing throughput.
func BenchmarkReadBinary(b *testing.B) {
	recs := sampleRecords(10_000)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, recs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteJSONLGz measures compressed-upload throughput (the §2
// pipeline) and reports the achieved ratio.
func BenchmarkWriteJSONLGz(b *testing.B) {
	recs := sampleRecords(10_000)
	b.ReportAllocs()
	var raw, comp int64
	for i := 0; i < b.N; i++ {
		var err error
		raw, comp, err = WriteJSONLGz(io.Discard, recs)
		if err != nil {
			b.Fatal(err)
		}
	}
	if comp > 0 {
		b.ReportMetric(float64(raw)/float64(comp), "compression-x")
	}
}

// FuzzReadJSONLGz ensures arbitrary input never panics the gzip path.
func FuzzReadJSONLGz(f *testing.F) {
	var buf bytes.Buffer
	if _, _, err := WriteJSONLGz(&buf, sampleRecords(3)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("not gzip at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReadJSONLGz(bytes.NewReader(data)) // must not panic
	})
}
