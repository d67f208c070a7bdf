// Package wire is the socket transport under distributed simulation: a
// fixed binary message format for cross-shard simulation events,
// length-prefixed frames, and a reliable endpoint (sequence numbers,
// cumulative acks, in-order retransmit across reconnects, exponential
// backoff redialing) that upholds the one delivery contract both
// simulation protocols require — per-sender FIFO, exactly once — on top
// of connections that chaos may stall, drop, duplicate through, or
// partition.
//
// Like inject and supervise, the package sits below the engines in the
// import graph (it imports only internal/supervise and the standard
// library), so engine configs can accept a *wire.Seam without a cycle.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Msg is one cross-shard simulation message in wire form. The engines'
// scalar LP message (lpnet.Msg) projects onto it one to one: Kind is the
// message kind (value, null, anti, request, …), From the sending LP, ID
// the Time Warp message identity for annihilation, Time the timestamp or
// bound, Gate and Value the payload.
type Msg struct {
	Kind  uint8
	From  int32
	ID    uint64
	Time  uint64
	Gate  int32
	Value uint8
}

// msgSize is the fixed encoding size of one Msg.
const msgSize = 1 + 4 + 8 + 8 + 4 + 1

// batchOverhead is the fixed prefix of a batch payload: destination LP
// and message count.
const batchOverhead = 4 + 4

// AppendBatch encodes a batch of messages for destination LP dst onto
// b. One batch is one frame, which is what makes PutAll delivery atomic
// across the wire.
func AppendBatch(b []byte, dst int32, ms []Msg) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(dst))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ms)))
	for _, m := range ms {
		b = append(b, m.Kind)
		b = binary.LittleEndian.AppendUint32(b, uint32(m.From))
		b = binary.LittleEndian.AppendUint64(b, m.ID)
		b = binary.LittleEndian.AppendUint64(b, m.Time)
		b = binary.LittleEndian.AppendUint32(b, uint32(m.Gate))
		b = append(b, m.Value)
	}
	return b
}

// DecodeBatch decodes a batch payload into its destination LP and
// messages.
func DecodeBatch(p []byte) (dst int32, ms []Msg, err error) {
	if len(p) < batchOverhead {
		return 0, nil, fmt.Errorf("wire: batch payload %d bytes", len(p))
	}
	dst = int32(binary.LittleEndian.Uint32(p[0:4]))
	n := int(binary.LittleEndian.Uint32(p[4:8]))
	if len(p) != batchOverhead+n*msgSize {
		return 0, nil, fmt.Errorf("wire: batch of %d msgs in %d bytes", n, len(p))
	}
	ms = make([]Msg, n)
	off := batchOverhead
	for i := range ms {
		ms[i] = Msg{
			Kind:  p[off],
			From:  int32(binary.LittleEndian.Uint32(p[off+1 : off+5])),
			ID:    binary.LittleEndian.Uint64(p[off+5 : off+13]),
			Time:  binary.LittleEndian.Uint64(p[off+13 : off+21]),
			Gate:  int32(binary.LittleEndian.Uint32(p[off+21 : off+25])),
			Value: p[off+25],
		}
		off += msgSize
	}
	return dst, ms, nil
}

// BatchDst peeks a batch payload's destination LP without decoding the
// messages — the relay's routing path.
func BatchDst(p []byte) (int32, error) {
	if len(p) < 4 {
		return 0, fmt.Errorf("wire: batch payload %d bytes", len(p))
	}
	return int32(binary.LittleEndian.Uint32(p[0:4])), nil
}
