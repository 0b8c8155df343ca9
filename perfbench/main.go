// Command perfbench is the ColorBars benchmark. It runs one workload
// for a fixed amount of work sized from --seconds, checks that the
// decoded output is correct, and prints one JSON result line last on
// standard output: every end-to-end metric with --trace 0, every
// per-layer metric with --trace 1. A human-readable table with sample
// counts and the host fingerprint goes to standard error.
//
// Run it through run.sh from the root of a checkout:
//
//	bash perfbench/run.sh --workload decode-replay --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// setupRepeats is how many times each workload performs its set-up;
// setup_s is the median.
const setupRepeats = 3

// report is what one workload run measured.
type report struct {
	setupS samples // seconds per set-up repetition
	// rates is the frames per wall-clock second of each timed unit
	// (link session, decode pass, or the whole fleet window).
	rates                  samples
	goodBits, simSeconds   float64
	symErrors, symCompared int
	sessionMs              samples
	attempted, failed      int
	// check is the first correctness failure, nil when outputs were
	// correct.
	check error
	// layer holds the per-layer metrics of a traced run, and
	// layerSamples the sample counts behind them.
	layer        map[string]float64
	layerSamples string
}

func (r *report) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":                r.setupS.quantile(0.5),
		"frames_per_s":           r.rates.quantile(0.5),
		"session_latency_p50_ms": r.sessionMs.quantile(0.50),
		"session_latency_p90_ms": r.sessionMs.quantile(0.90),
		"peak_rss_mb":            peakRSSMB(),
	}
}

var workloads = map[string]func(seed int64, seconds float64, trace bool) (*report, error){
	"link-sim":      runLinkSim,
	"decode-replay": runDecodeReplay,
	"ingest-fleet":  runIngestFleet,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: link-sim, decode-replay or ingest-fleet")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 15, "planned length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 times each layer and prints the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	r, err := run(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res := r.result(*trace == 1)
	printTable(*workload, *seed, r, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if r.check != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %v\n", *workload, r.check)
		os.Exit(1)
	}
}

// result renders the run's end-to-end metrics, or with traced its
// per-layer metrics.
func (r *report) result(traced bool) result {
	res := result{Correct: r.check == nil, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, r.endToEnd()
	if traced {
		defs, values = perLayer, map[string]float64{}
		for k, v := range r.layer {
			values[k] = v
		}
		values["modem.rx.goodput_bps"] = ratio(r.goodBits, r.simSeconds)
		values["modem.rx.ser"] = ratio(float64(r.symErrors), float64(r.symCompared))
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res
}

// printTable writes the human-readable result, with every timing's
// sample count and the host fingerprint, to standard error.
func printTable(workload string, seed int64, r *report, res result) {
	h, _ := json.Marshal(fingerprint("."))
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d  host %s\n", workload, seed, h)
	fmt.Fprintf(os.Stderr, "  samples: %d set-ups, %d timed units, %d sessions, %d SER symbols; %d attempted, %d failed\n",
		len(r.setupS), len(r.rates), len(r.sessionMs), r.symCompared, r.attempted, r.failed)
	if r.layerSamples != "" {
		fmt.Fprintf(os.Stderr, "  per-layer samples: %s\n", r.layerSamples)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; ok {
				fmt.Fprintf(os.Stderr, "  %-28s %14.6g %-6s %s\n", d.name, m.Value, m.Unit, d.moves)
			}
		}
	}
}
