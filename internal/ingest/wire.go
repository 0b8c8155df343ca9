// Package ingest is the network-facing decode service: many capture
// devices stream camera frames over TCP to one process that decodes
// them on a small set of shared pipeline.Pipeline shards.
//
// The wire protocol is deliberately dependency-free: length-prefixed
// binary messages with a one-byte version and type, over any
// io.ReadWriter (TCP in production, net.Pipe in tests).
//
//	[u32 length | big-endian] [ver u8] [type u8] [body ...]
//
// where length covers ver+type+body. A session is one connection:
//
//	device ─ HELLO ─▶ server          (link parameters + device id)
//	device ◀─ WELCOME ─ server        (session id, shard, cached calibration)
//	device ─ FRAME* ─▶ server         (seq-stamped captured frames)
//	device ◀─ ACK / SHED ─ server     (per-frame outcome, async)
//	device ◀─ BLOCK* ─ server         (decoded blocks, capture order)
//	device ─ BYE ─▶ server
//	device ◀─ STATS ─ server          (final session accounting)
//
// Frames travel losslessly at the sensor's quantization width: the
// camera stores pixel component v = k/(2^QuantBits-1) for an integer
// level k, so the codec sends k (1 byte per component when QuantBits
// ≤ 8, 2 bytes otherwise) and the decoder's identical division
// reproduces the exact float64 the simulated sensor produced. Decoded
// output is therefore byte-identical to decoding the original frames
// in-process — the property the loadgen digest check enforces.
package ingest

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"colorbars/internal/camera"
	"colorbars/internal/colorspace"
	"colorbars/internal/csk"
	"colorbars/internal/link"
)

// wireVersion is the protocol version byte every message carries.
const wireVersion = 1

// Message types.
const (
	msgHello   = 1 // device → server: link parameters
	msgWelcome = 2 // server → device: session grant
	msgFrame   = 3 // device → server: one captured frame
	msgAck     = 4 // server → device: frame decoded
	msgShed    = 5 // server → device: frame refused by admission control
	msgBlock   = 6 // server → device: one decoded block
	msgBye     = 7 // device → server: end of stream
	msgStats   = 8 // server → device: final accounting
)

// Shed reasons carried by SHED messages.
const (
	// ShedTokens means the service-wide token bucket was empty: the
	// aggregate frame rate exceeds the provisioned decode rate.
	ShedTokens = 1
	// ShedQueue means this session's pipeline input queue was full:
	// the decode lane is not keeping up with this device.
	ShedQueue = 2
)

// maxMessageSize bounds one wire message. The largest legitimate
// message is a FRAME from a high-resolution profile (rows×cols×3
// pixel components at up to 2 bytes each plus the fixed header);
// 16 MiB leaves generous headroom while still rejecting a corrupt or
// hostile length prefix before allocating.
const maxMessageSize = 16 << 20

// writeMessage frames and writes one message.
func writeMessage(w io.Writer, typ byte, body []byte) error {
	n := 2 + len(body)
	if n > maxMessageSize {
		return fmt.Errorf("ingest: message type %d too large (%d bytes)", typ, n)
	}
	hdr := []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n), wireVersion, typ}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(body) > 0 {
		if _, err := w.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// readMessage reads one framed message, enforcing the version and the
// size bound before allocating the body.
func readMessage(r io.Reader) (typ byte, body []byte, err error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	if n < 2 || n > maxMessageSize {
		return 0, nil, fmt.Errorf("ingest: message length %d out of range", n)
	}
	if hdr[4] != wireVersion {
		return 0, nil, fmt.Errorf("ingest: protocol version %d, want %d", hdr[4], wireVersion)
	}
	typ = hdr[5]
	if n > 2 {
		body = make([]byte, n-2)
		if _, err := io.ReadFull(r, body); err != nil {
			return 0, nil, err
		}
	}
	return typ, body, nil
}

// Hello is the session request: the device identifies itself and
// declares every link parameter the server needs to construct a
// matching receiver (constellation, rates, and the loss ratio the
// erasure code was sized for).
type Hello struct {
	DeviceID      string
	Order         int
	SymbolRate    float64
	WhiteFraction float64
	DataFraction  float64
	FrameRate     float64
	LossRatio     float64
}

// Link returns the link the HELLO announces.
func (h Hello) Link() link.Remote {
	return link.Remote{
		Point:        link.Point{Order: csk.Order(h.Order), SymbolRate: h.SymbolRate, WhiteFraction: h.WhiteFraction},
		DataFraction: h.DataFraction,
		FrameRate:    h.FrameRate,
		LossRatio:    h.LossRatio,
	}
}

func (h Hello) encode() ([]byte, error) {
	if len(h.DeviceID) == 0 || len(h.DeviceID) > 255 {
		return nil, fmt.Errorf("ingest: device id length %d out of [1,255]", len(h.DeviceID))
	}
	if h.Order < 1 || h.Order > 255 {
		return nil, fmt.Errorf("ingest: order %d out of range", h.Order)
	}
	out := make([]byte, 0, 2+len(h.DeviceID)+5*8)
	out = append(out, byte(len(h.DeviceID)))
	out = append(out, h.DeviceID...)
	out = append(out, byte(h.Order))
	for _, f := range []float64{h.SymbolRate, h.WhiteFraction, h.DataFraction, h.FrameRate, h.LossRatio} {
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(f))
	}
	return out, nil
}

func decodeHello(b []byte) (Hello, error) {
	if len(b) < 1 {
		return Hello{}, fmt.Errorf("ingest: empty HELLO")
	}
	idLen := int(b[0])
	want := 1 + idLen + 1 + 5*8
	if idLen == 0 || len(b) != want {
		return Hello{}, fmt.Errorf("ingest: HELLO length %d, want %d", len(b), want)
	}
	h := Hello{DeviceID: string(b[1 : 1+idLen]), Order: int(b[1+idLen])}
	off := 2 + idLen
	for _, dst := range []*float64{&h.SymbolRate, &h.WhiteFraction, &h.DataFraction, &h.FrameRate, &h.LossRatio} {
		*dst = math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
		off += 8
	}
	return h, nil
}

// Welcome is the session grant. When the server's calibration cache
// held a live snapshot for the device, CalSnapshot carries its
// serialized bytes — both so the device knows it skipped
// recalibration and so a verifying client can seed its own reference
// receiver identically.
type Welcome struct {
	SessionID   uint64
	Shard       int
	CalSnapshot []byte // nil on a cache miss
}

func (w Welcome) encode() []byte {
	out := make([]byte, 0, 8+4+2+len(w.CalSnapshot))
	out = binary.BigEndian.AppendUint64(out, w.SessionID)
	out = binary.BigEndian.AppendUint32(out, uint32(w.Shard))
	out = binary.BigEndian.AppendUint16(out, uint16(len(w.CalSnapshot)))
	return append(out, w.CalSnapshot...)
}

func decodeWelcome(b []byte) (Welcome, error) {
	if len(b) < 14 {
		return Welcome{}, fmt.Errorf("ingest: WELCOME truncated (%d bytes)", len(b))
	}
	w := Welcome{
		SessionID: binary.BigEndian.Uint64(b),
		Shard:     int(binary.BigEndian.Uint32(b[8:])),
	}
	n := int(binary.BigEndian.Uint16(b[12:]))
	if len(b) != 14+n {
		return Welcome{}, fmt.Errorf("ingest: WELCOME length %d, want %d", len(b), 14+n)
	}
	if n > 0 {
		w.CalSnapshot = append([]byte(nil), b[14:]...)
	}
	return w, nil
}

// Ack reports one frame fully decoded, with its submit-to-decode
// latency in microseconds.
type Ack struct {
	Seq       uint64
	LatencyUs uint32
}

func (a Ack) encode() []byte {
	out := make([]byte, 12)
	binary.BigEndian.PutUint64(out, a.Seq)
	binary.BigEndian.PutUint32(out[8:], a.LatencyUs)
	return out
}

func decodeAck(b []byte) (Ack, error) {
	if len(b) != 12 {
		return Ack{}, fmt.Errorf("ingest: ACK length %d, want 12", len(b))
	}
	return Ack{Seq: binary.BigEndian.Uint64(b), LatencyUs: binary.BigEndian.Uint32(b[8:])}, nil
}

// Shed reports one frame refused by admission control (reason is one
// of the Shed* constants). The frame was never submitted: to the
// decode path it is indistinguishable from an inter-frame gap.
type Shed struct {
	Seq    uint64
	Reason byte
}

func (s Shed) encode() []byte {
	out := make([]byte, 9)
	binary.BigEndian.PutUint64(out, s.Seq)
	out[8] = s.Reason
	return out
}

func decodeShed(b []byte) (Shed, error) {
	if len(b) != 9 {
		return Shed{}, fmt.Errorf("ingest: SHED length %d, want 9", len(b))
	}
	return Shed{Seq: binary.BigEndian.Uint64(b), Reason: b[8]}, nil
}

// Block is one decoded block, in strict capture order.
type Block struct {
	Recovered bool
	Data      []byte
}

func (bl Block) encode() []byte {
	out := make([]byte, 1, 1+len(bl.Data))
	if bl.Recovered {
		out[0] = 1
	}
	return append(out, bl.Data...)
}

func decodeBlock(b []byte) (Block, error) {
	if len(b) < 1 {
		return Block{}, fmt.Errorf("ingest: empty BLOCK")
	}
	bl := Block{Recovered: b[0] == 1}
	if len(b) > 1 {
		bl.Data = append([]byte(nil), b[1:]...)
	}
	return bl, nil
}

// Stats is the session's final accounting, sent in response to BYE
// after the decode lane drained.
type Stats struct {
	FramesIn   uint64 // frames received on the wire
	Admitted   uint64 // frames submitted to the pipeline
	ShedTokens uint64
	ShedQueue  uint64
	Blocks     uint64 // blocks emitted (recovered or not)
	BlocksOK   uint64 // blocks RS decoding recovered
	CalCached  bool   // the session ended with its calibration cached
}

func (s Stats) encode() []byte {
	out := make([]byte, 0, 6*8+1)
	for _, v := range []uint64{s.FramesIn, s.Admitted, s.ShedTokens, s.ShedQueue, s.Blocks, s.BlocksOK} {
		out = binary.BigEndian.AppendUint64(out, v)
	}
	if s.CalCached {
		return append(out, 1)
	}
	return append(out, 0)
}

func decodeStats(b []byte) (Stats, error) {
	if len(b) != 6*8+1 {
		return Stats{}, fmt.Errorf("ingest: STATS length %d, want %d", len(b), 6*8+1)
	}
	var s Stats
	for i, dst := range []*uint64{&s.FramesIn, &s.Admitted, &s.ShedTokens, &s.ShedQueue, &s.Blocks, &s.BlocksOK} {
		*dst = binary.BigEndian.Uint64(b[8*i:])
	}
	s.CalCached = b[48] == 1
	return s, nil
}

// frameHeaderSize is the fixed prefix of an encoded frame body
// (before the session/seq stamp is counted): rows u32 | cols u32 |
// start f64 | exposure f64 | iso f64 | rowTime f64 | quantBits u8.
const frameHeaderSize = 4 + 4 + 4*8 + 1

// encodeFrame appends the lossless wire form of f at the device's
// quantization width. It errors when a pixel component is off the
// quantization grid (a frame that never went through the simulated
// sensor, or a quantBits mismatch) — silently rounding would break
// the byte-identical-decode guarantee.
func encodeFrame(dst []byte, sessionID, seq uint64, f *camera.Frame, quantBits int) ([]byte, error) {
	if quantBits < 1 || quantBits > 16 {
		return nil, fmt.Errorf("ingest: quantBits %d out of [1,16]", quantBits)
	}
	if f.Rows <= 0 || f.Cols <= 0 || len(f.Pix) != f.Rows*f.Cols {
		return nil, fmt.Errorf("ingest: frame geometry %dx%d with %d pixels", f.Rows, f.Cols, len(f.Pix))
	}
	maxLevel := float64(uint32(1)<<quantBits - 1)
	wide := quantBits > 8
	per := 3
	if wide {
		per = 6
	}
	dst = binary.BigEndian.AppendUint64(dst, sessionID)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.Rows))
	dst = binary.BigEndian.AppendUint32(dst, uint32(f.Cols))
	for _, v := range []float64{f.Start, f.Exposure, f.ISO, f.RowTime} {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = append(dst, byte(quantBits))
	need := len(f.Pix) * per
	dst = append(dst, make([]byte, need)...)
	out := dst[len(dst)-need:]
	i := 0
	for _, p := range f.Pix {
		for _, v := range [3]float64{p.R, p.G, p.B} {
			k := math.Round(v * maxLevel)
			if k < 0 || k > maxLevel || v != k/maxLevel {
				return nil, fmt.Errorf("ingest: pixel component %v off the %d-bit quantization grid", v, quantBits)
			}
			ki := uint16(k)
			if wide {
				out[i] = byte(ki >> 8)
				out[i+1] = byte(ki)
				i += 2
			} else {
				out[i] = byte(ki)
				i++
			}
		}
	}
	return dst, nil
}

// decodeFrame parses a FRAME body, reconstructing bit-identical
// float64 pixels by repeating the sensor's own k/maxLevel division.
func decodeFrame(b []byte) (sessionID, seq uint64, f *camera.Frame, err error) {
	if len(b) < 16+frameHeaderSize {
		return 0, 0, nil, fmt.Errorf("ingest: FRAME truncated (%d bytes)", len(b))
	}
	sessionID = binary.BigEndian.Uint64(b)
	seq = binary.BigEndian.Uint64(b[8:])
	b = b[16:]
	f = &camera.Frame{
		Rows:     int(binary.BigEndian.Uint32(b)),
		Cols:     int(binary.BigEndian.Uint32(b[4:])),
		Start:    math.Float64frombits(binary.BigEndian.Uint64(b[8:])),
		Exposure: math.Float64frombits(binary.BigEndian.Uint64(b[16:])),
		ISO:      math.Float64frombits(binary.BigEndian.Uint64(b[24:])),
		RowTime:  math.Float64frombits(binary.BigEndian.Uint64(b[32:])),
	}
	quantBits := int(b[40])
	b = b[frameHeaderSize:]
	if quantBits < 1 || quantBits > 16 {
		return 0, 0, nil, fmt.Errorf("ingest: quantBits %d out of [1,16]", quantBits)
	}
	const maxPixels = maxMessageSize / 3
	if f.Rows <= 0 || f.Cols <= 0 || f.Rows*f.Cols > maxPixels {
		return 0, 0, nil, fmt.Errorf("ingest: frame geometry %dx%d out of range", f.Rows, f.Cols)
	}
	n := f.Rows * f.Cols
	wide := quantBits > 8
	per := 3
	if wide {
		per = 6
	}
	if len(b) != n*per {
		return 0, 0, nil, fmt.Errorf("ingest: FRAME pixel payload %d bytes, want %d", len(b), n*per)
	}
	maxLevel := float64(uint32(1)<<quantBits - 1)
	f.Pix = make([]colorspace.RGB, n)
	for i := range f.Pix {
		var c [3]float64
		for j := 0; j < 3; j++ {
			var k uint16
			if wide {
				k = uint16(b[0])<<8 | uint16(b[1])
				b = b[2:]
			} else {
				k = uint16(b[0])
				b = b[1:]
			}
			if float64(k) > maxLevel {
				return 0, 0, nil, fmt.Errorf("ingest: pixel level %d exceeds %d-bit range", k, quantBits)
			}
			c[j] = float64(k) / maxLevel
		}
		f.Pix[i] = colorspace.RGB{R: c[0], G: c[1], B: c[2]}
	}
	return sessionID, seq, f, nil
}
