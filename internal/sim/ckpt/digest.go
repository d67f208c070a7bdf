package ckpt

import "strconv"

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

// record writes "<tag> <a> <b> <c>\n", the shape of an event or sample
// line.
func (d *digest) record(tag string, a uint64, b int64, c uint64) {
	d.str(tag)
	d.uint(a)
	d.char(' ')
	d.int(b)
	d.char(' ')
	d.uint(c)
	d.end('\n')
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
