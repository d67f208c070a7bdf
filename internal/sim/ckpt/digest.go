package ckpt

import (
	"strconv"

	"repro/internal/logic"
)

// digest is the fnv64a stream behind every checksum in this package. Each
// record is formatted with strconv into one reused buffer, which is hashed
// whenever it fills; the byte stream is exactly the one the fmt.Fprintf
// writers of earlier versions produced, so every file written before keeps
// its digest.
type digest struct {
	h   uint64
	buf []byte
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
	digestChunk = 4096
)

func newDigest() *digest {
	return &digest{h: fnvOffset64, buf: make([]byte, 0, digestChunk+64)}
}

// flush hashes the buffered bytes.
func (d *digest) flush() {
	h := d.h
	for _, c := range d.buf {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	d.h, d.buf = h, d.buf[:0]
}

// end closes one record; a full buffer is hashed.
func (d *digest) end(c byte) {
	d.buf = append(d.buf, c)
	if len(d.buf) >= digestChunk {
		d.flush()
	}
}

func (d *digest) str(s string)  { d.buf = append(d.buf, s...) }
func (d *digest) char(c byte)   { d.buf = append(d.buf, c) }
func (d *digest) uint(u uint64) { d.buf = strconv.AppendUint(d.buf, u, 10) }
func (d *digest) int(i int64)   { d.buf = strconv.AppendInt(d.buf, i, 10) }

// record writes "<tag> <a> <b> <v>\n", the shape of an event or sample
// line, with put appending v.
func record[V comparable](d *digest, put func(*digest, V), tag string, a uint64, b int64, v V) {
	d.str(tag)
	d.uint(a)
	d.char(' ')
	d.int(b)
	d.char(' ')
	put(d, v)
	d.end('\n')
}

// texts picks, once per checksum, how a value of V enters a record: a
// scalar value in decimal, as every earlier version hashed it, a word as
// "<L>/<H>". No hash loop converts a value to an interface.
func texts[V comparable]() func(*digest, V) {
	if text, ok := any((*digest).scalar).(func(*digest, V)); ok {
		return text
	}
	return any((*digest).word).(func(*digest, V))
}

// values hashes a value plane: a scalar plane byte by byte in one tight
// loop, as every earlier version did, a word plane one record field and a
// space per word.
func values[V comparable](d *digest, p []V, text func(*digest, V)) {
	if p, ok := any(p).([]logic.Value); ok {
		for _, v := range p {
			d.end(byte(v))
		}
		return
	}
	for _, v := range p {
		text(d, v)
		d.end(' ')
	}
}

func (d *digest) scalar(v logic.Value) { d.uint(uint64(v)) }

func (d *digest) word(w logic.Word) {
	d.uint(w.L)
	d.char('/')
	d.uint(w.H)
}

// planeOf names V's plane as a header stores it: empty for scalar values,
// "wide" for 64-lane words. A header hashes a non-empty plane after its
// version, so a scalar header hashes as it always did.
func planeOf[V comparable]() string {
	if _, ok := any(*new(V)).(logic.Word); ok {
		return "wide"
	}
	return ""
}

// sum hashes what is left and renders the digest as "fnv64a:%016x".
func (d *digest) sum() string {
	d.flush()
	const prefix = "fnv64a:"
	out := make([]byte, 0, len(prefix)+16)
	out = append(out, prefix...)
	hex := strconv.AppendUint(make([]byte, 0, 16), d.h, 16)
	for i := len(hex); i < 16; i++ {
		out = append(out, '0')
	}
	return string(append(out, hex...))
}
