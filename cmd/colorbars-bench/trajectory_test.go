package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var testHost = host{CPU: "test-cpu", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go-test", Platform: "test/test"}

// decodeMetrics mirrors what benchCell records for one decode cell.
func decodeMetrics(ns, allocs, bytes, goodput, ser float64) []metric {
	return []metric{
		{Metric: "ns_per_frame", Value: ns, Unit: "ns", Better: "lower"},
		{Metric: "allocs_per_op", Value: allocs, Unit: "count", Better: "lower"},
		{Metric: "bytes_per_op", Value: bytes, Unit: "B"},
		{Metric: "goodput_bps", Value: goodput, Unit: "bit/s", Better: "higher"},
		{Metric: "ser", Value: ser, Unit: "ratio", Better: "lower", AbsSlack: 0.005},
	}
}

func samplePoint(date string) *point {
	t, err := time.Parse("2006-01-02", date)
	if err != nil {
		panic(err)
	}
	return &point{
		Schema: trajectorySchema,
		Time:   t,
		Host:   testHost,
		Entries: map[string][]metric{
			"decode/csk8":  decodeMetrics(1_000_000, 12, 4096, 576, 0.001),
			"decode/csk16": decodeMetrics(1_500_000, 20, 8192, 864, 0.01),
		},
	}
}

// set overwrites one metric's value in place.
func set(p *point, entry, name string, v float64) {
	for i := range p.Entries[entry] {
		if p.Entries[entry][i].Metric == name {
			p.Entries[entry][i].Value = v
			return
		}
	}
	panic("no metric " + entry + "/" + name)
}

func TestBenchReportRoundTripAndLatest(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := latestPoint(dir, testHost); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("empty dir: err = %v, want ErrNotExist", err)
	}
	for _, d := range []string{"2026-08-01", "2026-07-15", "2026-08-09"} {
		if _, err := writePoint(dir, samplePoint(d)); err != nil {
			t.Fatal(err)
		}
	}
	path, p, err := latestPoint(dir, testHost)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_2026-08-09.json" {
		t.Errorf("latest = %s, want the newest date", path)
	}
	if p.Time.Format("2006-01-02") != "2026-08-09" || p.Host != testHost || len(p.Entries) != 2 ||
		len(p.Entries["decode/csk8"]) != 5 {
		t.Errorf("round-tripped point: %+v", p)
	}
}

// TestLatestPointOrdersByTime records eleven same-day points: the
// eleventh is BENCH_<d>_11.json, which sorts before _2 by name, and
// must still be the one the gate picks.
func TestLatestPointOrdersByTime(t *testing.T) {
	dir := t.TempDir()
	day := time.Date(2026, 8, 9, 0, 0, 0, 0, time.UTC)
	var last string
	for i := 0; i < 11; i++ {
		p := samplePoint("2026-08-09")
		p.Time = day.Add(time.Duration(i) * time.Hour)
		path, err := writePoint(dir, p)
		if err != nil {
			t.Fatal(err)
		}
		last = path
	}
	if filepath.Base(last) != "BENCH_2026-08-09_11.json" {
		t.Fatalf("eleventh same-day point written to %s", last)
	}
	path, p, err := latestPoint(dir, testHost)
	if err != nil {
		t.Fatal(err)
	}
	if path != last || !p.Time.Equal(day.Add(10*time.Hour)) {
		t.Errorf("latest = %s at %v, want %s", path, p.Time, last)
	}
}

func TestCompareBenchPassesOnSelf(t *testing.T) {
	if regs := compareTrajectory(samplePoint("2026-08-01"), samplePoint("2026-08-09")); len(regs) != 0 {
		t.Errorf("identical points flagged: %v", regs)
	}
}

// TestCompareBenchFlagsTwoXSlowdown is the gate's own acceptance
// test: a synthetic 2x slowdown must fail.
func TestCompareBenchFlagsTwoXSlowdown(t *testing.T) {
	cur := samplePoint("2026-08-09")
	set(cur, "decode/csk8", "ns_per_frame", 2_000_000)
	regs := compareTrajectory(samplePoint("2026-08-01"), cur)
	if len(regs) != 1 || regs[0].Entry != "decode/csk8" || regs[0].Metric != "ns_per_frame" {
		t.Fatalf("2x slowdown: regressions = %v", regs)
	}
	if regs[0].Ratio < 1.99 || regs[0].Ratio > 2.01 {
		t.Errorf("ratio = %v, want ~2", regs[0].Ratio)
	}
	if s := regs[0].String(); !strings.Contains(s, "ns_per_frame") {
		t.Errorf("regression string %q", s)
	}
}

func TestCompareBenchEdges(t *testing.T) {
	base := samplePoint("2026-08-01")
	gate := func(cur *point) []regression { return compareTrajectory(base, cur) }

	// A vanished entry fails the gate once per metric it carried.
	cur := samplePoint("2026-08-09")
	delete(cur.Entries, "decode/csk16")
	regs := gate(cur)
	if len(regs) != 5 || !regs[0].Missing || regs[0].Entry != "decode/csk16" {
		t.Errorf("missing entry: %v", regs)
	}
	if s := regs[0].String(); !strings.Contains(s, "missing") {
		t.Errorf("missing string %q", s)
	}

	// A new entry in current does not fail.
	cur = samplePoint("2026-08-09")
	cur.Entries["decode/csk32"] = decodeMetrics(9e9, 99, 9e9, 0, 1)
	if regs := gate(cur); len(regs) != 0 {
		t.Errorf("new entry flagged: %v", regs)
	}

	// SER wobble inside the absolute slack passes; a real jump fails.
	cur = samplePoint("2026-08-09")
	set(cur, "decode/csk8", "ser", 0.004) // baseline 0.001 + slack 0.005 covers this
	if regs := gate(cur); len(regs) != 0 {
		t.Errorf("SER wobble flagged: %v", regs)
	}
	set(cur, "decode/csk8", "ser", 0.05)
	if regs := gate(cur); len(regs) != 1 || regs[0].Metric != "ser" {
		t.Errorf("SER jump: %v", regs)
	}

	// B/op is context: any movement passes.
	cur = samplePoint("2026-08-09")
	set(cur, "decode/csk8", "bytes_per_op", 1e6)
	if regs := gate(cur); len(regs) != 0 {
		t.Errorf("B/op movement flagged: %v", regs)
	}

	// Allocation growth past tolerance fails.
	cur = samplePoint("2026-08-09")
	set(cur, "decode/csk16", "allocs_per_op", 40)
	if regs := gate(cur); len(regs) != 1 || regs[0].Metric != "allocs_per_op" {
		t.Errorf("alloc growth: %v", regs)
	}

	// Goodput is higher-is-better: growth passes, a drop past the
	// tolerance fails.
	cur = samplePoint("2026-08-09")
	set(cur, "decode/csk8", "goodput_bps", 1500)
	if regs := gate(cur); len(regs) != 0 {
		t.Errorf("goodput growth flagged: %v", regs)
	}
	set(cur, "decode/csk8", "goodput_bps", 500)
	if regs := gate(cur); len(regs) != 1 || regs[0].Metric != "goodput_bps" {
		t.Errorf("goodput drop: %v", regs)
	}

	// Ingest p99 is lower-is-better with an absolute slack: jitter
	// inside the slack passes even when relatively large, a real tail
	// blow-up fails, and improvement never trips.
	ingest := func(p99 float64) *point {
		return &point{Schema: trajectorySchema, Host: testHost, Entries: map[string][]metric{
			"ingest_p99_us": {
				{Metric: "ingest_p99_us", Value: p99, Unit: "us", Better: "lower", AbsSlack: 25_000},
				{Metric: "shed_rate", Value: 0.3, Unit: "ratio"},
			}}}
	}
	baseI := ingest(40_000)
	for _, tc := range []struct {
		p99  float64
		want int
	}{
		{40_000 + 25_000, 0}, // inside slack despite >tolerance relative growth
		{120_000, 1},
		{10_000, 0},
	} {
		if regs := compareTrajectory(baseI, ingest(tc.p99)); len(regs) != tc.want {
			t.Errorf("ingest p99 %v: %v", tc.p99, regs)
		}
	}

	// Another schema is an error, not a silent pass.
	old := filepath.Join(t.TempDir(), "BENCH_2026-08-09.json")
	if err := os.WriteFile(old, []byte(`{"schema": 1, "date": "2026-08-09", "entries": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadPoint(old); err == nil {
		t.Error("schema 1 point not rejected")
	}
}

// TestCompareBenchDenseCells pins the gate direction of the two
// dense-constellation trajectory cells: goodput_dense fails only when
// goodput DROPS past tolerance, and eq_confidence is context-only —
// any movement passes, but the cell vanishing still fails like every
// other metric.
func TestCompareBenchDenseCells(t *testing.T) {
	mk := func(goodput, conf float64) *point {
		return &point{Schema: trajectorySchema, Host: testHost, Entries: map[string][]metric{
			"goodput_dense": {{Metric: "goodput_bps", Value: goodput, Unit: "bit/s", Better: "higher"}},
			"eq_confidence": {{Metric: "eq_confidence", Value: conf, Unit: "ratio"}},
		}}
	}
	base := mk(1000, 0.9)

	if regs := compareTrajectory(base, mk(1500, 0.6)); len(regs) != 0 {
		t.Errorf("dense goodput growth flagged: %v", regs)
	}
	if regs := compareTrajectory(base, mk(1000, 0)); len(regs) != 0 {
		t.Errorf("eq_confidence collapse flagged: %v", regs)
	}
	regs := compareTrajectory(base, mk(500, 0.9))
	if len(regs) != 1 || regs[0].Entry != "goodput_dense" || regs[0].Metric != "goodput_bps" {
		t.Errorf("dense goodput drop: %v", regs)
	}
	cur := mk(1000, 0.9)
	delete(cur.Entries, "eq_confidence")
	regs = compareTrajectory(base, cur)
	if len(regs) != 1 || regs[0].Entry != "eq_confidence" || !regs[0].Missing {
		t.Errorf("vanished eq_confidence cell: %v", regs)
	}
}

// TestGateSelfTest drives the gate the way runPerf does — a same-host
// baseline loaded from a directory — and checks that every kind of
// regression trips it while context movement does not.
func TestGateSelfTest(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := latestPoint(dir, testHost); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty dir: err = %v, want ErrNotExist", err)
	}
	full := func(date string) *point {
		p := samplePoint(date)
		p.Entries["decode/csk8"] = decodeMetrics(400_000, 0, 70, 576, 0)
		p.Entries["ingest_p99_us"] = []metric{
			{Metric: "ingest_p99_us", Value: 60_000, Unit: "us", Better: "lower", AbsSlack: 25_000},
			{Metric: "shed_rate", Value: 0.26, Unit: "ratio"},
		}
		p.Entries["eq_confidence"] = []metric{{Metric: "eq_confidence", Value: 0.93, Unit: "ratio"}}
		return p
	}
	if _, err := writePoint(dir, full("2026-08-01")); err != nil {
		t.Fatal(err)
	}
	// A newer point from another host must be ignored: gating against
	// it would pass every regression below.
	other := full("2026-08-05")
	other.Host.CPU = "other-cpu"
	set(other, "decode/csk8", "ns_per_frame", 1e12)
	if _, err := writePoint(dir, other); err != nil {
		t.Fatal(err)
	}
	path, base, err := latestPoint(dir, testHost)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_2026-08-01.json" {
		t.Fatalf("baseline = %s, want the same-host point", path)
	}

	cur := full("2026-08-09")
	set(cur, "decode/csk8", "ns_per_frame", 800_000)    // 2x ns/frame
	set(cur, "decode/csk8", "allocs_per_op", 1)         // 0 -> 1 allocs
	set(cur, "decode/csk16", "goodput_bps", 864/2)      // halved goodput
	set(cur, "decode/csk16", "ser", 0.1)                // SER jump
	set(cur, "ingest_p99_us", "ingest_p99_us", 200_000) // p99 blow-up
	set(cur, "decode/csk8", "bytes_per_op", 266)        // context moves
	set(cur, "ingest_p99_us", "shed_rate", 0.9)
	set(cur, "eq_confidence", "eq_confidence", 0.1)
	cur.Entries["decode/csk8"] = cur.Entries["decode/csk8"][:4] // ser vanishes

	got := map[string]bool{}
	for _, r := range compareTrajectory(base, cur) {
		got[r.Entry+" "+r.Metric] = true
		if r.Metric == "allocs_per_op" && !strings.HasSuffix(r.String(), "0 -> 1") {
			t.Errorf("zero-baseline regression reads %q", r)
		}
	}
	want := []string{
		"decode/csk8 ns_per_frame",
		"decode/csk8 allocs_per_op",
		"decode/csk8 ser",
		"decode/csk16 goodput_bps",
		"decode/csk16 ser",
		"ingest_p99_us ingest_p99_us",
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("gate missed %s", w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("gate flagged %v, want exactly %v", got, want)
	}
}

// TestCommittedTrajectoryLoads checks that every committed point is in
// the current schema and that each metric declares a unit and a valid
// direction.
func TestCommittedTrajectoryLoads(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "bench", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed trajectory points")
	}
	for _, path := range paths {
		p, err := loadPoint(path)
		if err != nil {
			t.Error(err)
			continue
		}
		if p.Time.IsZero() || len(p.Entries) == 0 {
			t.Errorf("%s: no time or no entries", path)
		}
		for name, ms := range p.Entries {
			for _, m := range ms {
				if m.Unit == "" || (m.Better != "lower" && m.Better != "higher" && m.Better != "") {
					t.Errorf("%s: %s/%s has unit %q, better %q", path, name, m.Metric, m.Unit, m.Better)
				}
			}
		}
	}
}
