// Package snapshot implements the versioned, checksummed binary
// container used for crash-safe simulator checkpoints.
//
// Layout of a sealed snapshot blob:
//
//	offset  size  field
//	0       8     magic "ERUCASN1"
//	8       4     format version (big-endian uint32)
//	12      4     payload length N (big-endian uint32)
//	16      N     payload (Encoder stream)
//	16+N    32    SHA-256 over bytes [0, 16+N)
//
// The payload is a flat stream of primitively-encoded fields written
// by Encoder and read back in the same order by Decoder. There is no
// self-description: reader and writer must agree on the field
// sequence, which is what the format version pins. Any structural
// change to what a subsystem serializes MUST bump Version.
//
// Decoder is hardened against arbitrary input: every read is
// bounds-checked, length prefixes are validated against the remaining
// payload, and all failures surface as a typed *DecodeError — never a
// panic, never an out-of-range slice. This is fuzzed (FuzzDecode).
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// Version is the current snapshot format version. Bump on any change
// to the field sequence emitted by any Snapshot method.
const Version = 4

const (
	magic      = "ERUCASN1"
	headerLen  = len(magic) + 4 + 4 // magic + version + payload length
	sumLen     = sha256.Size
	maxPayload = 1 << 30 // sanity bound: 1 GiB
)

// DecodeError is the typed error for every snapshot decoding failure:
// truncated blobs, checksum mismatches, version skew, bad length
// prefixes, or reading past the end of the payload.
type DecodeError struct {
	Off    int    // byte offset in the payload (or -1 for container-level errors)
	Reason string // human-readable description
}

func (e *DecodeError) Error() string {
	if e.Off < 0 {
		return "snapshot: " + e.Reason
	}
	return fmt.Sprintf("snapshot: payload offset %d: %s", e.Off, e.Reason)
}

func containerErr(format string, args ...any) *DecodeError {
	return &DecodeError{Off: -1, Reason: fmt.Sprintf(format, args...)}
}

// Encoder accumulates a flat field stream. The zero value is ready to
// use.
type Encoder struct {
	buf []byte
}

func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

func (e *Encoder) U32(v uint32)  { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *Encoder) U64(v uint64)  { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *Encoder) I64(v int64)   { e.U64(uint64(v)) }
func (e *Encoder) Int(v int)     { e.I64(int64(v)) }
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str writes a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes writes a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Len reports the current payload length.
func (e *Encoder) Len() int { return len(e.buf) }

// Seal wraps the accumulated payload in the container: magic, version,
// length, payload, SHA-256 checksum.
func (e *Encoder) Seal() []byte {
	out := make([]byte, 0, headerLen+len(e.buf)+sumLen)
	out = append(out, magic...)
	out = binary.BigEndian.AppendUint32(out, Version)
	out = binary.BigEndian.AppendUint32(out, uint32(len(e.buf)))
	out = append(out, e.buf...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// Decoder reads back a field stream produced by Encoder. Errors are
// sticky: after the first failure every subsequent read returns the
// zero value and Err() keeps reporting the original *DecodeError.
type Decoder struct {
	buf []byte
	off int
	err *DecodeError
}

// Open validates the container (magic, version, length, checksum) and
// returns a Decoder positioned at the start of the payload.
func Open(blob []byte) (*Decoder, error) {
	if len(blob) < headerLen+sumLen {
		return nil, containerErr("truncated container: %d bytes, need at least %d", len(blob), headerLen+sumLen)
	}
	if string(blob[:len(magic)]) != magic {
		return nil, containerErr("bad magic %q", blob[:len(magic)])
	}
	ver := binary.BigEndian.Uint32(blob[len(magic):])
	if ver != Version {
		return nil, containerErr("format version %d, this build reads version %d", ver, Version)
	}
	n := binary.BigEndian.Uint32(blob[len(magic)+4:])
	if n > maxPayload {
		return nil, containerErr("payload length %d exceeds sanity bound", n)
	}
	if len(blob) != headerLen+int(n)+sumLen {
		return nil, containerErr("container length %d does not match declared payload %d", len(blob), n)
	}
	body := blob[:headerLen+int(n)]
	want := blob[headerLen+int(n):]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(want) {
		return nil, containerErr("checksum mismatch: snapshot is corrupt")
	}
	return &Decoder{buf: blob[headerLen : headerLen+int(n)]}, nil
}

// Err returns the first decoding error, if any. Callers should check
// it once after the final field read.
func (d *Decoder) Err() error {
	if d.err == nil {
		return nil
	}
	return d.err
}

// Remaining reports how many payload bytes are left unread.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Close verifies the payload was consumed exactly.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		d.fail("payload has %d trailing bytes", len(d.buf)-d.off)
		return d.err
	}
	return nil
}

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = &DecodeError{Off: d.off, Reason: fmt.Sprintf(format, args...)}
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.fail("need %d bytes, %d remain", n, len(d.buf)-d.off)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *Decoder) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.off-- // point at the offending byte
		d.fail("invalid bool byte")
		d.off++
		return false
	}
}

func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *Decoder) I64() int64   { return int64(d.U64()) }
func (d *Decoder) Int() int     { return int(d.I64()) }
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

func (d *Decoder) Str() string {
	n := d.U32()
	if d.err != nil {
		return ""
	}
	b := d.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

func (d *Decoder) BytesField() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Count reads a length written with Encoder.Int and validates it as a
// non-negative element count that could plausibly fit in the remaining
// payload (each element needs at least minBytes). Guards decoders that
// pre-allocate slices from hostile lengths.
func (d *Decoder) Count(minBytes int) int {
	n := d.I64()
	if d.err != nil {
		return 0
	}
	if n < 0 {
		d.fail("negative element count %d", n)
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > int64(d.Remaining()/minBytes)+1 {
		d.fail("element count %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}
