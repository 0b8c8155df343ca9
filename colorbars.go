// Package colorbars is a Go implementation of ColorBars, the
// LED-to-camera visible light communication system of Hu, Pathak,
// Feng, Fu and Mohapatra (CoNEXT 2015). A tri-LED modulates data as
// colors (Color Shift Keying), and a rolling-shutter camera receives
// them as bands in its frames; the system keeps the LED's illumination
// white, recovers symbols lost in the camera's inter-frame gap with
// Reed-Solomon coding, and calibrates each receiver's color response
// with periodic calibration packets.
//
// The package ties together the building blocks under internal/ —
// color-space math, CSK constellations, Reed-Solomon codes, the LED
// waveform model, the rolling-shutter camera simulator, framing, and
// the modem pipelines — behind a small API:
//
//	cfg := colorbars.DefaultConfig()
//	tx, _ := colorbars.NewTransmitter(cfg)
//	wave, _ := tx.Broadcast([]byte("hello"), 2.0)
//
//	rx, _ := colorbars.NewReceiver(cfg)
//	cam := colorbars.NewCamera(colorbars.Nexus5(), 1)
//	for _, frame := range cam.CaptureVideo(wave, 0, 60) {
//	    for _, msg := range rx.ProcessFrame(frame) {
//	        fmt.Printf("%s\n", msg.Data)
//	    }
//	}
//
// On top of the paper's modem, Broadcast adds a small application
// protocol: messages are split into blocks carrying sequence headers,
// so a receiver reassembles the message even when individual packets
// are lost and recovered from later repetitions of the broadcast loop.
package colorbars

import (
	"encoding/binary"
	"fmt"

	"colorbars/internal/camera"
	"colorbars/internal/cie"
	"colorbars/internal/colorspace"
	"colorbars/internal/csk"
	"colorbars/internal/flicker"
	"colorbars/internal/led"
	"colorbars/internal/link"
	"colorbars/internal/linkstats"
	"colorbars/internal/modem"
	"colorbars/internal/packet"
	"colorbars/internal/rs"
	"colorbars/internal/telemetry"
)

// Re-exported building blocks. These aliases make the internal types
// part of the public API without duplicating them.
type (
	// Order is a CSK constellation order (4, 8, 16 or 32 from the
	// paper, plus the dense 64 and 256 extensions).
	Order = csk.Order
	// Profile describes a receiving camera device.
	Profile = camera.Profile
	// Camera is a simulated rolling-shutter camera.
	Camera = camera.Camera
	// Frame is one captured image.
	Frame = camera.Frame
	// Waveform is the tri-LED's emitted radiance over time.
	Waveform = led.Waveform
	// LinkHealth is a point-in-time link-quality snapshot (scalar
	// score plus degradation reason — see internal/linkstats).
	LinkHealth = linkstats.LinkHealth
	// LinkReport is a full link-quality report: LinkHealth plus the
	// classification-margin and parity-load histograms behind it.
	LinkReport = linkstats.Report
)

// Supported CSK constellation orders. CSK64 and CSK256 are the dense
// extensions beyond the paper's alphabet: their points are packed
// tightly enough that a practical link needs the receiver's online
// channel equalizer tracking drift between calibrations (see
// internal/equalize and the linkadapt dense ladder).
const (
	CSK4   = csk.CSK4
	CSK8   = csk.CSK8
	CSK16  = csk.CSK16
	CSK32  = csk.CSK32
	CSK64  = csk.CSK64
	CSK256 = csk.CSK256
)

// Device profiles from the paper's evaluation.
func Nexus5() Profile      { return camera.Nexus5() }
func IPhone5S() Profile    { return camera.IPhone5S() }
func IdealCamera() Profile { return camera.Ideal() }

// NewCamera returns a simulated camera with a deterministic noise
// seed.
func NewCamera(p Profile, seed int64) *Camera { return camera.New(p, seed) }

// MaxSymbolRate is the transmitter hardware's symbol-rate limit in Hz.
const MaxSymbolRate = led.MaxSymbolRate

// Config describes one ColorBars link. Both ends must use the same
// values (in a deployment they are part of the published sign format).
type Config struct {
	// Order is the CSK constellation order.
	Order Order
	// SymbolRate is the LED symbol frequency in Hz (≤ MaxSymbolRate).
	SymbolRate float64
	// WhiteFraction is the fraction of payload slots spent on white
	// illumination symbols. Zero selects the minimum flicker-free
	// fraction for the symbol rate from the Bloch's-law observer
	// model (paper §4, Fig 3b).
	WhiteFraction float64
	// TargetLossRatio is the worst inter-frame loss ratio among the
	// receivers the link must support; the Reed-Solomon code is sized
	// for it (paper §8: goodput is bounded by the lossiest supported
	// phone). Zero selects 0.38, which covers the iPhone 5S.
	TargetLossRatio float64
	// FrameRate is the supported receivers' frame rate. Zero selects
	// 30 fps.
	FrameRate float64
	// CalibrationEvery inserts a calibration packet before every
	// CalibrationEvery data packets. Zero selects 6, about 5 per
	// second at one packet per frame (the paper's rate).
	CalibrationEvery int
	// Power scales the LED radiance; 1 is the paper's low-lumen
	// prototype.
	Power float64
	// PaperSizing selects the paper's §5 Reed-Solomon sizing, which
	// provisions parity to recover one gap's loss as unknown-position
	// errors (rate ≈ 1−2l). The default uses erasure-aware sizing
	// (rate ≈ 1−l): the receiver learns the loss positions from the
	// packet header, so half the parity suffices.
	PaperSizing bool
	// TrackAnnouncedRung records modulation-ladder rungs announced in
	// transmitter calibration metadata (Transmitter.AnnounceRung) into
	// the receiver's link report and the /debug/link endpoint — the rx
	// tool's -adapt flag. Fixed-rate links without announcements are
	// unaffected.
	TrackAnnouncedRung bool
}

// DefaultConfig returns the configuration of the paper's headline
// result: 16-CSK at 4 kHz.
func DefaultConfig() Config {
	return Config{
		Order:      CSK16,
		SymbolRate: 4000,
	}
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.WhiteFraction == 0 {
		c.WhiteFraction = autoWhiteFraction(c.Order, c.SymbolRate)
	}
	if c.TargetLossRatio == 0 {
		c.TargetLossRatio = 0.38
	}
	if c.FrameRate == 0 {
		c.FrameRate = 30
	}
	if c.CalibrationEvery == 0 {
		c.CalibrationEvery = 6
	}
	if c.Power == 0 {
		c.Power = 1
	}
	return c
}

// autoWhiteFraction picks the flicker-free white fraction for the
// symbol rate, with a floor that keeps the illumination robust to
// non-uniform data.
func autoWhiteFraction(order Order, rate float64) float64 {
	cons, err := csk.New(order, cie.SRGBTriangle)
	if err != nil {
		return 0.2
	}
	drives := make([]colorspace.RGB, cons.Size())
	for i := range drives {
		drives[i] = cons.Drive(i)
	}
	frac := flicker.MinWhiteFraction(flicker.DefaultObserver(), drives, rate, 3000, 1)
	if frac < 0.1 {
		frac = 0.1
	}
	if frac > 0.9 {
		frac = 0.9
	}
	return frac
}

// code builds the link's RS code.
func (c Config) code() (*rs.Code, error) {
	sizing := link.ErasureSizing
	if c.PaperSizing {
		sizing = link.PaperSizing
	}
	pt := link.Point{Order: c.Order, SymbolRate: c.SymbolRate, WhiteFraction: c.WhiteFraction}
	return sizing.Code(pt, 1-c.WhiteFraction, c.FrameRate, c.TargetLossRatio)
}

// --- application-layer message protocol ---

// blockHeaderLen is the per-block header: sequence (1), total blocks
// (1), message length (2), CRC-16 of the chunk (2). Messages are
// therefore limited to 255 blocks and 64 KiB — ample for signage
// payloads, and small enough to fit the short blocks of
// low-symbol-rate links. The CRC catches the rare Reed-Solomon
// miscorrection that the erasure-split search can let through.
const blockHeaderLen = 6

// crc16 computes the CCITT CRC-16 (poly 0x1021, init 0xFFFF).
func crc16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// Transmitter broadcasts messages as ColorBars waveforms.
type Transmitter struct {
	cfg Config
	tx  *modem.Transmitter
	k   int
}

// NewTransmitter builds a transmitter for the link configuration.
func NewTransmitter(cfg Config) (*Transmitter, error) {
	cfg = cfg.withDefaults()
	code, err := cfg.code()
	if err != nil {
		return nil, err
	}
	if code.K() <= blockHeaderLen {
		return nil, fmt.Errorf("colorbars: link blocks too small (%d bytes) for the message protocol", code.K())
	}
	tx, err := modem.NewTransmitter(modem.TxConfig{
		Order:            cfg.Order,
		SymbolRate:       cfg.SymbolRate,
		WhiteFraction:    cfg.WhiteFraction,
		Power:            cfg.Power,
		Triangle:         cie.SRGBTriangle,
		CalibrationEvery: cfg.CalibrationEvery,
		Code:             code,
		Telemetry:        telemetry.Process().NewChild(),
	})
	if err != nil {
		return nil, err
	}
	return &Transmitter{cfg: cfg, tx: tx, k: code.K()}, nil
}

// Config returns the link configuration (with defaults resolved).
func (t *Transmitter) Config() Config { return t.cfg }

// Telemetry returns the transmitter's metric registry (a child of
// telemetry.Process(), so the tx.* counters also roll up into the
// process-level registry exposed via -telemetry-addr).
func (t *Transmitter) Telemetry() *telemetry.Registry { return t.tx.Telemetry() }

// AnnounceRung embeds modulation-ladder metadata — the link's current
// rung index and adaptation epoch — into every subsequent calibration
// packet (the in-band negotiation channel of DESIGN.md §13). It
// reports whether the metadata-bearing calibration packet still fits
// one frame's visible symbol window under the link's worst supported
// loss ratio; when it does not (dense metadata on a slow rung), no
// metadata is emitted — a region split by the inter-frame gap could
// never decode anyway. A negative rung stops the announcements.
func (t *Transmitter) AnnounceRung(rung, epoch int) bool {
	if rung < 0 {
		t.tx.SetCalMeta(nil)
		return true
	}
	meta := packet.EncodeCalMeta(packet.CalMeta{
		Rung: rung, HasRung: true,
		Epoch: epoch, HasEpoch: true,
	})
	cal, err := t.tx.PacketConfig().BuildCalibrationMeta(t.tx.Constellation().CalibrationOrder(), meta)
	if err != nil {
		return false
	}
	visible := t.cfg.SymbolRate / t.cfg.FrameRate * (1 - t.cfg.TargetLossRatio)
	if float64(len(cal)) > visible-2 {
		return false
	}
	t.tx.SetCalMeta(meta)
	return true
}

// segment splits a message into headered blocks of exactly k bytes.
func (t *Transmitter) segment(msg []byte) ([]byte, error) {
	if len(msg) == 0 {
		return nil, fmt.Errorf("colorbars: empty message")
	}
	chunk := t.k - blockHeaderLen
	total := (len(msg) + chunk - 1) / chunk
	if total > 255 {
		return nil, fmt.Errorf("colorbars: message needs %d blocks, max 255", total)
	}
	if len(msg) > 1<<16-1 {
		return nil, fmt.Errorf("colorbars: message %d bytes exceeds 64 KiB", len(msg))
	}
	out := make([]byte, 0, total*t.k)
	for seq := 0; seq < total; seq++ {
		lo := seq * chunk
		hi := lo + chunk
		if hi > len(msg) {
			hi = len(msg)
		}
		block := make([]byte, chunk)
		copy(block, msg[lo:hi])
		var hdr [blockHeaderLen]byte
		hdr[0] = byte(seq)
		hdr[1] = byte(total)
		binary.BigEndian.PutUint16(hdr[2:4], uint16(len(msg)))
		binary.BigEndian.PutUint16(hdr[4:6], crc16(block))
		out = append(out, hdr[:]...)
		out = append(out, block...)
	}
	return out, nil
}

// Broadcast encodes the message and repeats it (with de-phasing
// padding) until the waveform covers at least the given duration —
// the broadcast-loop operation of a ColorBars sign.
func (t *Transmitter) Broadcast(msg []byte, seconds float64) (*Waveform, error) {
	seg, err := t.segment(msg)
	if err != nil {
		return nil, err
	}
	return t.tx.BuildWaveformRepeating(seg, seconds)
}

// Encode encodes one pass of the message without repetition.
func (t *Transmitter) Encode(msg []byte) (*Waveform, error) {
	seg, err := t.segment(msg)
	if err != nil {
		return nil, err
	}
	return t.tx.BuildWaveform(seg)
}

// Message is a fully reassembled broadcast message.
type Message struct {
	// Data is the message payload.
	Data []byte
	// Blocks is the number of link blocks the message spanned.
	Blocks int
}

// assembler reassembles broadcast messages from decoded link blocks.
// It is the application-protocol half of a receiver, shared by the
// serial Receiver and the concurrent Pipeline streams (each stream
// owns one; it is not goroutine-safe).
type assembler struct {
	blocks map[int][]byte // seq -> chunk
	total  int
	msgLen int
}

func newAssembler() *assembler {
	return &assembler{blocks: map[int][]byte{}}
}

// progress reports how many of the current message's blocks have been
// received.
func (a *assembler) progress() (have, total int) {
	return len(a.blocks), a.total
}

// take integrates one decoded link block into the reassembly state,
// returning a message when it completes.
func (a *assembler) take(blk modem.Block) *Message {
	if !blk.Recovered || len(blk.Data) <= blockHeaderLen {
		return nil
	}
	seq := int(blk.Data[0])
	total := int(blk.Data[1])
	msgLen := int(binary.BigEndian.Uint16(blk.Data[2:4]))
	wantCRC := binary.BigEndian.Uint16(blk.Data[4:6])
	chunk := len(blk.Data) - blockHeaderLen
	if total == 0 || seq >= total || msgLen == 0 || msgLen > total*chunk {
		return nil // corrupt header that slipped past RS (or foreign traffic)
	}
	if crc16(blk.Data[blockHeaderLen:]) != wantCRC {
		return nil // Reed-Solomon miscorrection caught by the CRC
	}
	if total != a.total || msgLen != a.msgLen {
		// New message (or first block): reset reassembly.
		a.blocks = map[int][]byte{}
		a.total = total
		a.msgLen = msgLen
	}
	if _, dup := a.blocks[seq]; !dup {
		a.blocks[seq] = append([]byte(nil), blk.Data[blockHeaderLen:]...)
	}
	if len(a.blocks) < a.total {
		return nil
	}
	out := make([]byte, 0, a.total*chunk)
	for seq := 0; seq < a.total; seq++ {
		out = append(out, a.blocks[seq]...)
	}
	msg := &Message{Data: out[:a.msgLen], Blocks: a.total}
	a.blocks = map[int][]byte{}
	a.total, a.msgLen = 0, 0
	return msg
}

// Receiver decodes camera frames into messages.
type Receiver struct {
	cfg Config
	rx  *modem.Receiver
	ls  *linkstats.Collector
	asm *assembler
}

// NewReceiver builds a receiver for the link configuration.
func NewReceiver(cfg Config) (*Receiver, error) {
	cfg = cfg.withDefaults()
	rx, ls, err := cfg.receiver()
	if err != nil {
		return nil, err
	}
	return &Receiver{cfg: cfg, rx: rx, ls: ls, asm: newAssembler()}, nil
}

// receiver builds the link-layer receiver for c (defaults resolved)
// and the link-quality collector it reports into.
func (c Config) receiver() (*modem.Receiver, *linkstats.Collector, error) {
	code, err := c.code()
	if err != nil {
		return nil, nil, err
	}
	tel := telemetry.Process().NewChild()
	ls := linkstats.NewCollector(linkstats.Config{
		Points:        int(c.Order),
		BitsPerSymbol: c.Order.BitsPerSymbol(),
		Telemetry:     tel,
	})
	rx, err := modem.NewReceiver(modem.RxConfig{
		Order:              c.Order,
		SymbolRate:         c.SymbolRate,
		WhiteFraction:      c.WhiteFraction,
		Code:               code,
		Triangle:           cie.SRGBTriangle,
		Telemetry:          tel,
		LinkStats:          ls,
		TrackAnnouncedRung: c.TrackAnnouncedRung,
	})
	return rx, ls, err
}

// Config returns the link configuration (with defaults resolved).
func (r *Receiver) Config() Config { return r.cfg }

// Stats returns the receiver's low-level counters.
func (r *Receiver) Stats() modem.RxStats { return r.rx.Stats() }

// Telemetry returns the receiver's metric registry (a child of
// telemetry.Process()); attach a trace sink with SetSink or read a
// Snapshot for the per-stage latency histograms and failure counters.
func (r *Receiver) Telemetry() *telemetry.Registry { return r.rx.Telemetry() }

// Calibrated reports whether the receiver has obtained color
// references from a calibration packet.
func (r *Receiver) Calibrated() bool { return r.rx.Calibrated() }

// Health returns the receiver's current link-quality snapshot: a
// scalar score in [0, 1] plus the dominant degradation reason,
// backed by classification margins, block outcomes, and calibration
// age (DESIGN.md §11).
func (r *Receiver) Health() LinkHealth { return r.ls.Health() }

// LinkReport returns the receiver's full link-quality report,
// including the classification-margin histograms; name labels the
// report (e.g. a stream or camera identifier).
func (r *Receiver) LinkReport(name string) LinkReport { return r.ls.Report(name) }

// PublishLink exposes this receiver's live link report at the
// /debug/link endpoint of any -telemetry-addr debug server under the
// given name.
func (r *Receiver) PublishLink(name string) { linkstats.Publish(name, r.ls) }

// Progress returns how many of the current message's blocks have been
// received (0, 0 before the first block arrives).
func (r *Receiver) Progress() (have, total int) {
	return r.asm.progress()
}

// ProcessFrame feeds one captured frame through the pipeline and
// returns any messages completed by it. Frames must arrive in capture
// order.
func (r *Receiver) ProcessFrame(f *Frame) []Message {
	var msgs []Message
	for _, blk := range r.rx.ProcessFrame(f) {
		if m := r.asm.take(blk); m != nil {
			msgs = append(msgs, *m)
		}
	}
	return msgs
}

// Flush drains the pipeline at end of capture.
func (r *Receiver) Flush() []Message {
	var msgs []Message
	for _, blk := range r.rx.Flush() {
		if m := r.asm.take(blk); m != nil {
			msgs = append(msgs, *m)
		}
	}
	return msgs
}
