package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The benchmark trajectory is a series of dated points in bench/, one
// BENCH_<date>[_n].json file each. A point carries generic metric
// records whose producer declares unit, direction and slack, so a new
// cell or metric needs no gate code.

// trajectorySchema is bumped when point's serialized shape changes
// incompatibly; the loader refuses any other version.
const trajectorySchema = 2

// gateTolerance is the relative regression budget per gated metric.
const gateTolerance = 0.10

// metric is one measured quantity of a trajectory cell. Better is
// "lower" or "higher" for gated metrics and "" for context that is
// recorded but never gated. AbsSlack is movement always tolerated on
// top of the relative tolerance, in the metric's own unit.
type metric struct {
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	AbsSlack float64 `json:"abs_slack,omitempty"`
}

// host identifies the machine a point was measured on. Timing cells
// are only comparable between points with equal hosts. A trajectory
// spans commits, so no source identity belongs here.
type host struct {
	CPU        string `json:"cpu,omitempty"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
	Platform   string `json:"platform,omitempty"`
}

// point is one measurement of every trajectory cell.
type point struct {
	Schema  int                 `json:"schema"`
	Time    time.Time           `json:"time"`
	Host    host                `json:"host"`
	Entries map[string][]metric `json:"entries"`
}

func thisHost() host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// writePoint serializes p to dir/BENCH_<date>.json, appending _2, _3,
// … when that name is taken so history is never overwritten, and
// returns the written path. Order comes from the recorded time, not
// from the name.
func writePoint(dir string, p *point) (string, error) {
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Join(dir, "BENCH_"+p.Time.UTC().Format("2006-01-02"))
	path := base + ".json"
	for n := 2; ; n++ {
		if _, err := os.Stat(path); os.IsNotExist(err) {
			break
		} else if err != nil {
			return "", err
		}
		path = fmt.Sprintf("%s_%d.json", base, n)
	}
	return path, os.WriteFile(path, append(raw, '\n'), 0o644)
}

func loadPoint(path string) (*point, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p point
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if p.Schema != trajectorySchema {
		return nil, fmt.Errorf("%s: schema %d, want %d", path, p.Schema, trajectorySchema)
	}
	return &p, nil
}

// latestPoint loads the newest point in dir measured on h. Without one
// it returns an error wrapping os.ErrNotExist.
func latestPoint(dir string, h host) (string, *point, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", nil, err
	}
	var bestPath string
	var best *point
	for _, path := range paths {
		p, err := loadPoint(path)
		if err != nil {
			return "", nil, err
		}
		if p.Host == h && (best == nil || p.Time.After(best.Time)) {
			bestPath, best = path, p
		}
	}
	if best == nil {
		return "", nil, fmt.Errorf("no trajectory point in %s for host %+v; record one with `make bench-json` and commit it: %w",
			dir, h, os.ErrNotExist)
	}
	return bestPath, best, nil
}

// regression is one gate violation. Ratio is Current/Baseline, 0 when
// the baseline is 0 or the metric is missing.
type regression struct {
	Entry, Metric     string
	Baseline, Current float64
	Ratio             float64
	Missing           bool
}

func (r regression) String() string {
	if r.Missing {
		return fmt.Sprintf("%s: %s missing from current point", r.Entry, r.Metric)
	}
	if r.Baseline == 0 {
		return fmt.Sprintf("%s: %s 0 -> %.4g", r.Entry, r.Metric, r.Current)
	}
	return fmt.Sprintf("%s: %s %.4g -> %.4g (%.2fx)", r.Entry, r.Metric, r.Baseline, r.Current, r.Ratio)
}

// compareTrajectory gates cur against base under the baseline's
// declared directions and slacks: every baseline metric must still
// exist, and no gated one may move past tolerance in its bad
// direction. A zero baseline is a measurement like any other. Metrics
// new in cur never fail; they join at the next recorded point.
func compareTrajectory(base, cur *point) []regression {
	names := make([]string, 0, len(base.Entries))
	for n := range base.Entries {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []regression
	for _, name := range names {
		have := map[string]float64{}
		for _, m := range cur.Entries[name] {
			have[m.Metric] = m.Value
		}
		for _, b := range base.Entries[name] {
			c, ok := have[b.Metric]
			r := regression{Entry: name, Metric: b.Metric, Baseline: b.Value, Current: c, Missing: !ok}
			if b.Value != 0 {
				r.Ratio = c / b.Value
			}
			if !ok ||
				b.Better == "lower" && c > b.Value*(1+gateTolerance)+b.AbsSlack ||
				b.Better == "higher" && c < b.Value*(1-gateTolerance)-b.AbsSlack {
				out = append(out, r)
			}
		}
	}
	return out
}
