package main

import (
	"fmt"
	"runtime"
	"time"

	"colorbars/internal/camera"
	"colorbars/internal/modem"
	"colorbars/internal/telemetry"
)

// layerTimes collects what a traced run measures around the
// benchmark's own calls into each package's public functions. Nothing
// inside the program is instrumented for it; the counters come from
// the telemetry registry the benchmark passes in through each config.
type layerTimes struct {
	captureUs, waveformMs         samples
	analyzeUs, processUs, flushUs samples
	rxAllocs, rxBytes             uint64
	rxFrames                      int
	// cameraMs and loopMs are the camera's time inside the timed frame
	// loop and the loop's total.
	cameraMs, loopMs float64
	// tracedFrameMs and plainFrameMs are per-frame costs of units run
	// with and without per-call timing, alternating in one traced run.
	tracedFrameMs, plainFrameMs samples
}

// decode runs one frame through the receiver's front and back halves.
// Traced, it times each call and counts its heap allocations.
func (lt *layerTimes) decode(rx *modem.Receiver, f *camera.Frame, traced bool) []modem.Block {
	if !traced {
		return rx.ProcessAnalysis(rx.Analyze(f))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	a := rx.Analyze(f)
	t1 := time.Now()
	bs := rx.ProcessAnalysis(a)
	t2 := time.Now()
	runtime.ReadMemStats(&m1)
	lt.analyzeUs = append(lt.analyzeUs, us(t1.Sub(t0)))
	lt.processUs = append(lt.processUs, us(t2.Sub(t1)))
	lt.rxAllocs += m1.Mallocs - m0.Mallocs
	lt.rxBytes += m1.TotalAlloc - m0.TotalAlloc
	lt.rxFrames++
	return bs
}

// flush drains the receiver at end of stream, timing it when traced.
func (lt *layerTimes) flush(rx *modem.Receiver, traced bool) []modem.Block {
	if !traced {
		return rx.Flush()
	}
	t0 := time.Now()
	bs := rx.Flush()
	lt.flushUs = append(lt.flushUs, us(time.Since(t0)))
	return bs
}

// unit records one decode unit's per-frame cost for the tracing
// overhead estimate.
func (lt *layerTimes) unit(traced bool, d time.Duration, frames int) {
	if frames == 0 {
		return
	}
	v := ms(d) / float64(frames)
	if traced {
		lt.tracedFrameMs = append(lt.tracedFrameMs, v)
	} else {
		lt.plainFrameMs = append(lt.plainFrameMs, v)
	}
}

// sampleCounts states how many samples each per-layer timing rests on.
func (lt *layerTimes) sampleCounts() string {
	return fmt.Sprintf("%d captures, %d waveforms, %d receiver frames, %d flushes, %d traced and %d untraced units",
		len(lt.captureUs), len(lt.waveformMs), len(lt.analyzeUs), len(lt.flushUs), len(lt.tracedFrameMs), len(lt.plainFrameMs))
}

// perLayer renders every per-layer metric but the ingest ones; reg is
// the registry every receiver, camera and injector of the run reported
// into.
func (lt *layerTimes) perLayer(reg *telemetry.Registry) (map[string]float64, string) {
	c := reg.Snapshot().Counters
	count := func(name string) float64 { return float64(c[name]) }
	m := map[string]float64{
		"camera.capture_us.p50":     lt.captureUs.quantile(0.50),
		"camera.capture_us.p99":     lt.captureUs.quantile(0.99),
		"camera.share":              ratio(lt.cameraMs, lt.loopMs),
		"modem.tx.waveform_ms":      lt.waveformMs.quantile(0.50),
		"fault.frames_dropped":      count("fault.frames_dropped"),
		"fault.frames_duplicated":   count("fault.frames_duplicated"),
		"modem.rx.analyze_us.p50":   lt.analyzeUs.quantile(0.50),
		"modem.rx.analyze_us.p99":   lt.analyzeUs.quantile(0.99),
		"modem.rx.process_us.p50":   lt.processUs.quantile(0.50),
		"modem.rx.process_us.p99":   lt.processUs.quantile(0.99),
		"modem.rx.flush_us":         lt.flushUs.quantile(0.50),
		"modem.rx.allocs_per_frame": ratio(float64(lt.rxAllocs), float64(lt.rxFrames)),
		"modem.rx.bytes_per_frame":  ratio(float64(lt.rxBytes), float64(lt.rxFrames)),
		"modem.rx.rs_ok_ratio":      ratio(count("rx.rs_decode_ok"), count("rx.rs_attempts")),
		"modem.rx.resyncs":          count("rx.resyncs"),
		"modem.rx.deframe_discards": count("rx.deframe_discards"),
		"trace.overhead_pct":        0,
	}
	if len(lt.plainFrameMs) > 0 && len(lt.tracedFrameMs) > 0 {
		plain := lt.plainFrameMs.sum() / float64(len(lt.plainFrameMs))
		traced := lt.tracedFrameMs.sum() / float64(len(lt.tracedFrameMs))
		m["trace.overhead_pct"] = 100 * (traced/plain - 1)
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	return m, lt.sampleCounts()
}
