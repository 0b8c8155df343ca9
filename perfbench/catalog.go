package main

// metricDef names one reported metric. Every workload reports every
// end-to-end metric (untraced run) and every per-layer metric (traced
// run); a per-layer metric whose layer a workload never calls reads 0
// there.
type metricDef struct {
	name, unit string
	// moves names the end-to-end metric and workload a change to the
	// layer should move (per-layer metrics only).
	moves string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "frames_per_s", unit: "1/s"},
	{name: "session_latency_p50_ms", unit: "ms"},
	{name: "session_latency_p90_ms", unit: "ms"},
	{name: "peak_rss_mb", unit: "MB"},
}

var perLayer = []metricDef{
	{"camera.capture_us.p50", "us", "link-sim frames_per_s; setup_s elsewhere"},
	{"camera.capture_us.p99", "us", "link-sim frames_per_s; setup_s elsewhere"},
	{"camera.share", "ratio", "link-sim frames_per_s"},
	{"modem.tx.waveform_ms", "ms", "link-sim frames_per_s (small)"},
	{"fault.frames_dropped", "count", "modem.rx.goodput_bps on link-sim"},
	{"fault.frames_duplicated", "count", "modem.rx.goodput_bps on link-sim"},
	{"modem.rx.analyze_us.p50", "us", "decode-replay frames_per_s; ingest-fleet session_latency_*"},
	{"modem.rx.analyze_us.p99", "us", "decode-replay frames_per_s; ingest-fleet session_latency_*"},
	{"modem.rx.process_us.p50", "us", "decode-replay frames_per_s; ingest-fleet session_latency_*"},
	{"modem.rx.process_us.p99", "us", "decode-replay frames_per_s; ingest-fleet session_latency_*"},
	{"modem.rx.flush_us", "us", "decode-replay session_latency_*"},
	{"modem.rx.allocs_per_frame", "count", "decode-replay frames_per_s and peak_rss_mb"},
	{"modem.rx.bytes_per_frame", "B", "decode-replay frames_per_s and peak_rss_mb"},
	{"modem.rx.goodput_bps", "bit/s", "link quality: recovered payload bits per simulated second"},
	{"modem.rx.ser", "ratio", "link quality: ground-truth symbol error rate of recovered blocks"},
	{"modem.rx.rs_ok_ratio", "ratio", "modem.rx.goodput_bps on link-sim"},
	{"modem.rx.resyncs", "count", "modem.rx.goodput_bps on link-sim"},
	{"modem.rx.deframe_discards", "count", "modem.rx.goodput_bps on link-sim"},
	{"ingest.frame_latency_ms.p50", "ms", "ingest-fleet session_latency_*"},
	{"ingest.frame_latency_ms.p99", "ms", "ingest-fleet session_latency_*"},
	{"ingest.session_ms.p50", "ms", "ingest-fleet session_latency_*"},
	{"ingest.session_ms.p90", "ms", "ingest-fleet session_latency_*"},
	{"ingest.conn_wait_ms.p90", "ms", "ingest-fleet session_latency_*"},
	{"ingest.gen_late_ms.p99", "ms", "ingest-fleet session_latency_* (generator health)"},
	{"ingest.serial_decode_ms.p50", "ms", "ingest-fleet session_latency_*"},
	{"ingest.overhead_ratio", "ratio", "ingest-fleet session_latency_*"},
	{"ingest.cal_hit_ratio", "ratio", "ingest-fleet session_latency_*"},
	{"ingest.shed_ratio", "ratio", "ingest-fleet session_latency_*"},
	{"ingest.blocks_ok_ratio", "ratio", "modem.rx.goodput_bps on ingest-fleet"},
	{"trace.overhead_pct", "%", "none: per-frame cost of timing each call, traced vs untraced units in one run"},
}
