package wire

import (
	"sync/atomic"

	"repro/internal/mpsc"
	"repro/internal/sim/supervise"
)

// Shim adapts an engine's message type M to a Seam: Outbox stands in
// for a remote LP's mailbox and Bind feeds the local ones. The engines
// differ only in their codec and in which message kinds their transit
// ledger counts.
type Shim[M any] struct {
	Seam *Seam
	Enc  func(M) Msg
	Dec  func(Msg) M
	// Counted reports whether the engine's send path added m to Transit.
	Counted func(M) bool
	Transit *atomic.Int64
}

// Outbox is the remote half of the transport seam: an mpsc.Transport
// standing in for a remote LP's mailbox, whose PutAll encodes the batch
// and hands it to the seam as one frame (so batch atomicity and
// per-sender FIFO — which null promises and annihilation depend on —
// survive the wire). Counted messages leave the engine's transit ledger
// here, after the seam has counted them into its wire-sent ledger, so no
// quiescence or GVT round can observe them in neither. The drain side is
// never used — no local goroutine owns a remote LP.
type Outbox[M any] struct {
	shim Shim[M]
	dst  int
}

var _ mpsc.Transport[Msg] = (*Outbox[Msg])(nil)

// Outbox returns the stand-in mailbox for remote LP dst.
func (s Shim[M]) Outbox(dst int) *Outbox[M] { return &Outbox[M]{shim: s, dst: dst} }

func (o *Outbox[M]) Put(m M) { o.PutAll([]M{m}) }

func (o *Outbox[M]) PutAll(ms []M) {
	if len(ms) == 0 {
		return
	}
	ws := make([]Msg, len(ms))
	counted := int64(0)
	for i, m := range ms {
		ws[i] = o.shim.Enc(m)
		if o.shim.Counted(m) {
			counted++
		}
	}
	o.shim.Seam.Send(o.dst, ws)
	if counted > 0 {
		o.shim.Transit.Add(-counted)
	}
}

func (o *Outbox[M]) TryDrain(buf []M) []M          { return buf }
func (o *Outbox[M]) WaitDrain(buf []M) ([]M, bool) { return buf, false }
func (o *Outbox[M]) Poke()                         {}
func (o *Outbox[M]) Close()                        {}
func (o *Outbox[M]) Len() int                      { return 0 }

// Bind wires the seam to this worker's local mailboxes: inbound batches
// decode and deliver with one PutAll (atomicity preserved), a link
// failure reaches fail as a transport SimError of the named engine, and
// the heartbeat probe samples progress. Returns the unhook, which
// engines defer so a late failure cannot touch a finished run.
func (s Shim[M]) Bind(inboxes []mpsc.Transport[M], engine string, fail func(error), progress func() (events uint64, idle bool)) func() {
	for i, ib := range inboxes {
		if !s.Seam.Local(i) {
			continue
		}
		s.Seam.Bind(i, func(ws []Msg) {
			batch := make([]M, len(ws))
			for j, w := range ws {
				batch[j] = s.Dec(w)
			}
			ib.PutAll(batch)
		})
	}
	s.Seam.OnDown(func(err error) {
		fail(&supervise.SimError{
			Engine: engine, LP: -1, Phase: "transport",
			Kind: supervise.KindInternal, Cause: err,
		})
	})
	s.Seam.SetProgress(progress)
	return func() {
		s.Seam.OnDown(nil)
		s.Seam.SetProgress(nil)
	}
}
