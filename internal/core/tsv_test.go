package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func jsonUnmarshal(data []byte, v any) error { return json.Unmarshal(data, v) }

func TestWriteTSV(t *testing.T) {
	_, rep := smallRun(t)
	dir := t.TempDir()
	if err := rep.WriteTSV(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 25 {
		t.Fatalf("only %d files written", len(entries))
	}
	// Spot-check a CDF file: header plus monotone data.
	data, err := os.ReadFile(filepath.Join(dir, "fig09_byflows_cdf.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 {
		t.Fatalf("fig09 file too short: %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "seconds\tcdf") {
		t.Fatalf("missing header: %q", lines[0])
	}
	// Episodes file parses.
	data, err = os.ReadFile(filepath.Join(dir, "fig05_episodes.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "link\tstart_s\tduration_s") {
		t.Fatal("episodes header wrong")
	}
	// Summary text included for humans.
	data, err = os.ReadFile(filepath.Join(dir, "summary.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Fig 12") {
		t.Fatal("summary.txt incomplete")
	}
}

func TestWriteTSVBadDir(t *testing.T) {
	_, rep := smallRun(t)
	if err := rep.WriteTSV("/proc/definitely/not/writable"); err == nil {
		t.Fatal("expected error for unwritable dir")
	}
}

// TestApplyDefaults pins the figure parameters derived from the run
// duration.
func TestApplyDefaults(t *testing.T) {
	// Long run: the paper's periods.
	p := paramsFor(48 * time.Hour)
	if p.fig8Period != 24*time.Hour {
		t.Fatalf("long-run fig8Period = %v, want a day", p.fig8Period)
	}
	if p.tomoBin != 10*time.Minute {
		t.Fatalf("long-run tomoBin = %v, want 10m", p.tomoBin)
	}
	if p.fig2At != 24*time.Hour {
		t.Fatalf("long-run fig2At = %v, want mid-run", p.fig2At)
	}
	// Short run: periods shrink.
	p = paramsFor(time.Hour)
	if p.fig8Period != time.Hour/8 {
		t.Fatalf("short-run fig8Period = %v", p.fig8Period)
	}
	if p.tomoBin != time.Hour/12 {
		t.Fatalf("short-run tomoBin = %v", p.tomoBin)
	}
}

func TestReportJSON(t *testing.T) {
	_, rep := smallRun(t)
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var h Headline
	if err := jsonUnmarshal(data, &h); err != nil {
		t.Fatal(err)
	}
	if h.ConnectionCap != 2 {
		t.Fatalf("connection cap %d in JSON, want 2", h.ConnectionCap)
	}
	if h.FracFlowsUnder10s <= 0 || h.PZeroAcrossRack <= 0 {
		t.Fatalf("headline fields empty: %+v", h)
	}
}
