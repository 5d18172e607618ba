package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
)

// WriteJSONLGz streams records as gzip-compressed JSON lines — the
// "compress the logs prior to uploading" step of §2 — and returns the
// uncompressed and compressed byte counts so callers can verify the
// paper's ≥3× reduction on real data rather than assuming it.
func WriteJSONLGz(w io.Writer, records []FlowRecord) (raw, compressed int64, err error) {
	cw := &countingWriter{w: w}
	gz := gzip.NewWriter(cw)
	var line []byte
	for i := range records {
		line = appendLine(line[:0], &records[i])
		if _, err := gz.Write(line); err != nil {
			return 0, 0, fmt.Errorf("trace: encode record %d: %w", i, err)
		}
		raw += int64(len(line))
	}
	if err := gz.Close(); err != nil {
		return 0, 0, fmt.Errorf("trace: close gzip: %w", err)
	}
	return raw, cw.n, nil
}

// ReadJSONLGz parses a gzip-compressed JSONL flow-record stream.
func ReadJSONLGz(r io.Reader) ([]FlowRecord, error) {
	gz, err := gzip.NewReader(bufio.NewReader(r))
	if err != nil {
		return nil, fmt.Errorf("trace: open gzip: %w", err)
	}
	defer gz.Close()
	return ReadJSONL(gz)
}

// CompressionSample is how many records, from the start of a run's
// completion-order log, the §2 compression ratio is measured on: both
// Collector.MeasuredCompression(0) and the analysis report compress
// exactly this prefix (or the whole log when it is shorter).
const CompressionSample = 100_000

// MeasureCompression compresses the records to a byte sink and reports
// the achieved ratio (raw/compressed). Used by the overhead report to
// ground the §2 compression claim in this run's actual data.
func MeasureCompression(records []FlowRecord) (ratio float64, err error) {
	raw, comp, err := WriteJSONLGz(io.Discard, records)
	if err != nil {
		return 0, err
	}
	if comp == 0 {
		return 0, nil
	}
	return float64(raw) / float64(comp), nil
}

// countingWriter counts bytes passing through to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
