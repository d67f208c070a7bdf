package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Frame kinds. Sequenced kinds (assigned a nonzero sequence number) are
// delivered reliably, exactly once, in order; unsequenced kinds
// (hello/hello-ok/heartbeat/ack) are connection-scoped and may be lost.
const (
	// FHello opens a connection: shard id, attempt, and the dialer's
	// highest contiguously received sequence number.
	FHello byte = iota + 1
	// FHelloOK answers with the acceptor's highest received sequence
	// number, from which the dialer retransmits.
	FHelloOK
	// FJob carries a worker's job from the coordinator: a JSON header and
	// the encoded prepared run.
	FJob
	// FBatch carries one encoded event batch for one destination LP.
	FBatch
	// FHeartbeat is the worker's periodic liveness beacon: cumulative
	// event count and an all-idle flag.
	FHeartbeat
	// FGVTStart begins one distributed GVT round.
	FGVTStart
	// FGVTReport is a worker's round report: local quiescence, local
	// minimum, and cumulative wire send/receive counts.
	FGVTReport
	// FGVTDone ends a GVT cycle with the computed GVT (or terminates the
	// run when the GVT has passed the horizon).
	FGVTDone
	// FResult carries the worker's JSON shard result.
	FResult
	// FError carries a worker's structured failure.
	FError
	// FAck is an empty frame whose header ack field drains the peer's
	// retransmit buffer when no reverse traffic is flowing.
	FAck
	// FDone tells a worker every shard's result arrived and it may exit.
	FDone
	// FMeshAddr carries a worker's mesh listener address to the hub
	// (JSON MeshAddr), the first half of the mesh handshake.
	FMeshAddr
	// FMeshTable carries the hub's complete shard -> mesh address routing
	// table to every worker (JSON MeshTable), the second half.
	FMeshTable
	// FChaos carries a hub-injected chaos order for one of the worker's
	// mesh links (netfault faults with a per-link mesh target).
	FChaos
)

// MaxFrame bounds a frame's payload; a length beyond it means a
// corrupted stream.
const MaxFrame = 64 << 20

// frameHeader is length (4) + kind (1) + seq (8) + ack (8); the length
// field counts kind+seq+ack+payload.
const frameHeader = 4 + 1 + 8 + 8

// MaxPayload is the largest payload a frame can carry and still be read
// back: senders of unbounded payloads (the job frame) check against it.
const MaxPayload = MaxFrame - (frameHeader - 4)

// writeFrame writes one frame. Callers serialize writes per connection.
func writeFrame(w io.Writer, kind byte, seq, ack uint64, payload []byte) error {
	buf := make([]byte, frameHeader, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(frameHeader-4+len(payload)))
	buf[4] = kind
	binary.LittleEndian.PutUint64(buf[5:13], seq)
	binary.LittleEndian.PutUint64(buf[13:21], ack)
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame, returning its payload in a fresh slice.
func readFrame(r io.Reader) (kind byte, seq, ack uint64, payload []byte, err error) {
	var hdr [frameHeader]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n < frameHeader-4 || n > MaxFrame {
		return 0, 0, 0, nil, fmt.Errorf("wire: frame length %d", n)
	}
	kind = hdr[4]
	seq = binary.LittleEndian.Uint64(hdr[5:13])
	ack = binary.LittleEndian.Uint64(hdr[13:21])
	payload = make([]byte, n-(frameHeader-4))
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, 0, nil, err
	}
	return kind, seq, ack, payload, nil
}

// Hello is the connection-opening handshake payload.
type Hello struct {
	Shard   int32
	Attempt int32
	// RecvSeq is the dialer's highest contiguously received sequence
	// number; the acceptor resumes retransmission above it.
	RecvSeq uint64
}

func appendHello(b []byte, h Hello) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(h.Shard))
	b = binary.LittleEndian.AppendUint32(b, uint32(h.Attempt))
	b = binary.LittleEndian.AppendUint64(b, h.RecvSeq)
	return b
}

func decodeHello(p []byte) (Hello, error) {
	if len(p) != 16 {
		return Hello{}, fmt.Errorf("wire: hello payload %d bytes", len(p))
	}
	return Hello{
		Shard:   int32(binary.LittleEndian.Uint32(p[0:4])),
		Attempt: int32(binary.LittleEndian.Uint32(p[4:8])),
		RecvSeq: binary.LittleEndian.Uint64(p[8:16]),
	}, nil
}

// Heartbeat is the worker liveness beacon payload. Sent and Recv
// piggyback the shard's cumulative cross-shard message counters on the
// beacon: the hub's GVT driver can observe a stable Mattern cut from
// heartbeats alone and conclude a steady-state (all-idle) GVT cycle
// after a single explicit round instead of two.
type Heartbeat struct {
	// Events is the shard's cumulative processed-event count.
	Events uint64
	// Idle reports every local LP parked with nothing to do.
	Idle bool
	// Sent and Recv are the shard's cumulative cross-shard message
	// counts, the same counters an FGVTReport carries.
	Sent uint64
	Recv uint64
}

// AppendHeartbeat encodes a heartbeat payload.
func AppendHeartbeat(b []byte, h Heartbeat) []byte {
	b = binary.LittleEndian.AppendUint64(b, h.Events)
	idle := byte(0)
	if h.Idle {
		idle = 1
	}
	b = append(b, idle)
	b = binary.LittleEndian.AppendUint64(b, h.Sent)
	b = binary.LittleEndian.AppendUint64(b, h.Recv)
	return b
}

// DecodeHeartbeat decodes a heartbeat payload.
func DecodeHeartbeat(p []byte) (Heartbeat, error) {
	if len(p) != 25 {
		return Heartbeat{}, fmt.Errorf("wire: heartbeat payload %d bytes", len(p))
	}
	return Heartbeat{
		Events: binary.LittleEndian.Uint64(p[0:8]),
		Idle:   p[8] == 1,
		Sent:   binary.LittleEndian.Uint64(p[9:17]),
		Recv:   binary.LittleEndian.Uint64(p[17:25]),
	}, nil
}

// GVTStart is one distributed GVT round's kickoff payload.
type GVTStart struct{ Round uint32 }

// AppendGVTStart encodes a round kickoff.
func AppendGVTStart(b []byte, g GVTStart) []byte {
	return binary.LittleEndian.AppendUint32(b, g.Round)
}

// DecodeGVTStart decodes a round kickoff.
func DecodeGVTStart(p []byte) (GVTStart, error) {
	if len(p) != 4 {
		return GVTStart{}, fmt.Errorf("wire: gvt-start payload %d bytes", len(p))
	}
	return GVTStart{Round: binary.LittleEndian.Uint32(p[0:4])}, nil
}

// GVTReport is a worker's per-round GVT report payload.
type GVTReport struct {
	Round uint32
	// Quiet reports a locally quiescent round: no LP handled a message
	// and no locally buffered message is unflushed.
	Quiet bool
	// LocalMin is the shard's local GVT contribution (min over LVTs and
	// unprocessed/unacknowledged message timestamps).
	LocalMin uint64
	// Sent and Recv are the shard's cumulative cross-shard message
	// counts; the coordinator concludes only when the global sums match
	// and are stable across consecutive rounds (Mattern-style counting).
	Sent uint64
	Recv uint64
}

// AppendGVTReport encodes a round report.
func AppendGVTReport(b []byte, g GVTReport) []byte {
	b = binary.LittleEndian.AppendUint32(b, g.Round)
	q := byte(0)
	if g.Quiet {
		q = 1
	}
	b = append(b, q)
	b = binary.LittleEndian.AppendUint64(b, g.LocalMin)
	b = binary.LittleEndian.AppendUint64(b, g.Sent)
	b = binary.LittleEndian.AppendUint64(b, g.Recv)
	return b
}

// DecodeGVTReport decodes a round report.
func DecodeGVTReport(p []byte) (GVTReport, error) {
	if len(p) != 29 {
		return GVTReport{}, fmt.Errorf("wire: gvt-report payload %d bytes", len(p))
	}
	return GVTReport{
		Round:    binary.LittleEndian.Uint32(p[0:4]),
		Quiet:    p[4] == 1,
		LocalMin: binary.LittleEndian.Uint64(p[5:13]),
		Sent:     binary.LittleEndian.Uint64(p[13:21]),
		Recv:     binary.LittleEndian.Uint64(p[21:29]),
	}, nil
}

// GVTDone ends a GVT cycle.
type GVTDone struct {
	GVT uint64
	// Terminate tells workers the GVT passed the horizon: commit and
	// stop.
	Terminate bool
}

// AppendGVTDone encodes a cycle conclusion.
func AppendGVTDone(b []byte, g GVTDone) []byte {
	b = binary.LittleEndian.AppendUint64(b, g.GVT)
	t := byte(0)
	if g.Terminate {
		t = 1
	}
	return append(b, t)
}

// DecodeGVTDone decodes a cycle conclusion.
func DecodeGVTDone(p []byte) (GVTDone, error) {
	if len(p) != 9 {
		return GVTDone{}, fmt.Errorf("wire: gvt-done payload %d bytes", len(p))
	}
	return GVTDone{GVT: binary.LittleEndian.Uint64(p[0:8]), Terminate: p[8] == 1}, nil
}

// MeshAddr is a worker's FMeshAddr payload: where its mesh listener
// accepts direct peer connections. JSON — mesh setup is cold-path.
type MeshAddr struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
}

// AppendMeshAddr encodes a mesh address announcement.
func AppendMeshAddr(b []byte, m MeshAddr) []byte {
	p, _ := json.Marshal(&m)
	return append(b, p...)
}

// DecodeMeshAddr decodes a mesh address announcement.
func DecodeMeshAddr(p []byte) (MeshAddr, error) {
	var m MeshAddr
	if err := json.Unmarshal(p, &m); err != nil {
		return MeshAddr{}, fmt.Errorf("wire: mesh-addr payload: %v", err)
	}
	return m, nil
}

// MeshTable is the hub's FMeshTable payload: every shard's mesh listener
// address, indexed by shard. Workers derive their neighbor sets from the
// partition's cut edges; the table only supplies the addresses.
type MeshTable struct {
	Addrs []string `json:"addrs"`
}

// AppendMeshTable encodes the routing table.
func AppendMeshTable(b []byte, m MeshTable) []byte {
	p, _ := json.Marshal(&m)
	return append(b, p...)
}

// DecodeMeshTable decodes the routing table.
func DecodeMeshTable(p []byte) (MeshTable, error) {
	var m MeshTable
	if err := json.Unmarshal(p, &m); err != nil {
		return MeshTable{}, fmt.Errorf("wire: mesh-table payload: %v", err)
	}
	return m, nil
}

// Chaos is a hub-injected fault order for one of the worker's mesh
// links: Op mirrors netfault's op codes, Peer is the target peer shard,
// Ms the stall/partition duration.
type Chaos struct {
	Op   uint8
	Peer int32
	Ms   uint64
}

// AppendChaos encodes a chaos order.
func AppendChaos(b []byte, c Chaos) []byte {
	b = append(b, c.Op)
	b = binary.LittleEndian.AppendUint32(b, uint32(c.Peer))
	return binary.LittleEndian.AppendUint64(b, c.Ms)
}

// DecodeChaos decodes a chaos order.
func DecodeChaos(p []byte) (Chaos, error) {
	if len(p) != 13 {
		return Chaos{}, fmt.Errorf("wire: chaos payload %d bytes", len(p))
	}
	return Chaos{
		Op:   p[0],
		Peer: int32(binary.LittleEndian.Uint32(p[1:5])),
		Ms:   binary.LittleEndian.Uint64(p[5:13]),
	}, nil
}
