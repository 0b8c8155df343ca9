package colorbars

import (
	"context"

	"colorbars/internal/linkstats"
	"colorbars/internal/modem"
	"colorbars/internal/pipeline"
	"colorbars/internal/telemetry"
)

// PipelineConfig parameterizes NewPipeline. The zero value is usable:
// GOMAXPROCS workers, default queue depths, backpressure on overload.
type PipelineConfig struct {
	// Workers sizes the shared analysis worker pool (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds each stream's input queue (0 = 8).
	QueueDepth int
	// DropOldest makes a full input queue discard its oldest frame
	// instead of blocking Submit — for live capture, where a stale
	// frame is worth less than a fresh one. Dropped frames decode like
	// inter-frame gap losses (RS erasures), so the link degrades
	// instead of stalling.
	DropOldest bool
}

// Pipeline decodes multiple LED streams concurrently on a shared
// worker pool, each stream's output byte-identical to a serial
// Receiver fed the same frames. See internal/pipeline for the
// concurrency architecture and DESIGN.md §9 for the rationale.
type Pipeline struct {
	p   *pipeline.Pipeline
	tel *telemetry.Registry
}

// NewPipeline starts a concurrent receive pipeline.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	tel := telemetry.Process().NewChild()
	pc := pipeline.Config{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		Telemetry:  tel,
	}
	if cfg.DropOldest {
		pc.Overload = pipeline.DropOldest
	}
	return &Pipeline{p: pipeline.New(pc), tel: tel}
}

// Workers reports the pool size.
func (p *Pipeline) Workers() int { return p.p.Workers() }

// Telemetry returns the pipeline's metric registry (a child of
// telemetry.Process()): queue-depth gauges, worker utilization, frame
// latency and drop counters.
func (p *Pipeline) Telemetry() *telemetry.Registry { return p.tel }

// AddStream registers one LED stream decoding under the link
// configuration and returns its lane. The id names the stream in
// telemetry and must be unique within the pipeline.
func (p *Pipeline) AddStream(id string, cfg Config) (*PipelineStream, error) {
	rx, ls, err := cfg.withDefaults().receiver()
	if err != nil {
		return nil, err
	}
	s, err := p.p.AddStream(id, rx)
	if err != nil {
		return nil, err
	}
	ps := &PipelineStream{s: s, id: id, ls: ls, out: make(chan Message, 4)}
	go ps.assemble()
	return ps, nil
}

// Close shuts the pipeline down gracefully: admitted frames finish
// decoding and every stream's Messages() channel closes. Consumers
// must keep draining Messages() during Close; ctx bounds the wait and
// aborts hard on expiry.
func (p *Pipeline) Close(ctx context.Context) error { return p.p.Close(ctx) }

// Abort tears the pipeline down immediately, dropping in-flight
// frames.
func (p *Pipeline) Abort() { p.p.Abort() }

// PipelineStream is one LED stream's lane through a Pipeline: submit
// captured frames, receive reassembled Messages.
type PipelineStream struct {
	s   *pipeline.Stream
	id  string
	ls  *linkstats.Collector
	out chan Message
}

// Submit hands one captured frame to the stream (frames in capture
// order). Under the default policy a full queue blocks until space
// frees or ctx is done; with DropOldest it never blocks on queue
// space.
func (s *PipelineStream) Submit(ctx context.Context, f *Frame) error {
	return s.s.Submit(ctx, f)
}

// CloseInput marks the end of the stream's input; already-admitted
// frames still decode, then Messages() closes.
func (s *PipelineStream) CloseInput() { s.s.CloseInput() }

// Messages returns the stream's reassembled messages in decode order.
// The channel closes after CloseInput (or pipeline Close/Abort) once
// the stream is drained.
func (s *PipelineStream) Messages() <-chan Message { return s.out }

// Stats exposes the stream's low-level receiver counters.
func (s *PipelineStream) Stats() modem.RxStats { return s.s.Stats() }

// Generation reports the stream's recycle generation: 0 for a first
// registration of its id, n when the watchdog recycled the id n times
// before this stream registered. Seeds for stochastic layers wrapped
// around the stream — the fault injector above all — must incorporate
// it, or a replacement stream replays the original's random phase.
func (s *PipelineStream) Generation() uint64 { return s.s.Generation() }

// Telemetry returns the stream receiver's metric registry; attach a
// trace sink with SetSink to record the stream's per-stage events.
func (s *PipelineStream) Telemetry() *telemetry.Registry { return s.s.Telemetry() }

// Health returns the stream's current link-quality snapshot; safe to
// call while the stream is decoding.
func (s *PipelineStream) Health() LinkHealth { return s.s.Health() }

// LinkReport returns the stream's full link-quality report, labeled
// with the stream id.
func (s *PipelineStream) LinkReport() LinkReport { return s.ls.Report(s.id) }

// PublishLink exposes this stream's live link report at the
// /debug/link endpoint of any -telemetry-addr debug server, under the
// stream id.
func (s *PipelineStream) PublishLink() { linkstats.Publish(s.id, s.ls) }

// assemble translates the stream's ordered Block output into
// application Messages — the same assembler the serial Receiver uses,
// owned by this goroutine.
func (s *PipelineStream) assemble() {
	defer close(s.out)
	asm := newAssembler()
	for blk := range s.s.Blocks() {
		if m := asm.take(blk); m != nil {
			s.out <- *m
		}
	}
}
