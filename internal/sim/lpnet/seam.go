package lpnet

import (
	"fmt"
	"sync/atomic"

	"repro/internal/dist/wire"
	"repro/internal/logic"
	"repro/internal/mpsc"
	"repro/internal/sim/supervise"
)

// outbox is the remote half of the transport seam: the mailbox standing
// in for an LP on another shard. PutAll encodes the batch and hands it to
// the seam as one frame, so batch atomicity and per-sender FIFO survive
// the wire. Values and anti-messages — the kinds on the transit ledger
// that can cross a seam — leave it here, after the seam has counted them
// into its wire-sent ledger, so no quiescence or GVT round can observe
// them in neither. Nothing local drains it.
type outbox struct {
	seam    *wire.Seam
	dst     int
	transit *atomic.Int64
}

var _ mpsc.Transport[Msg[logic.Value]] = (*outbox)(nil)

func (o *outbox) Put(m Msg[logic.Value]) { o.PutAll([]Msg[logic.Value]{m}) }

func (o *outbox) PutAll(ms []Msg[logic.Value]) {
	if len(ms) == 0 {
		return
	}
	ws := make([]wire.Msg, len(ms))
	var sent int64
	for i, m := range ms {
		ws[i] = Encode(m)
		if m.Kind == Value || m.Kind == Anti {
			sent++
		}
	}
	o.seam.Send(o.dst, ws)
	if sent > 0 {
		o.transit.Add(-sent)
	}
}

func (o *outbox) TryDrain(buf []Msg[logic.Value]) []Msg[logic.Value] { return buf }
func (o *outbox) WaitDrain(buf []Msg[logic.Value]) ([]Msg[logic.Value], bool) {
	return buf, false
}
func (o *outbox) Poke()    {}
func (o *outbox) Close()   {}
func (o *outbox) Len() int { return 0 }

// Waiting is false: a remote receiver's wait is not visible here, and a
// frame per step would cost more on the wire than the overlap it buys.
func (o *outbox) Waiting() bool { return false }

// scalar is n itself on the scalar plane, the only one the wire carries.
func (n *Net[V]) scalar() (*Net[logic.Value], error) {
	sn, ok := any(n).(*Net[logic.Value])
	if !ok {
		return nil, fmt.Errorf("%s: distributed runs carry scalar values only", n.engine)
	}
	return sn, nil
}

// openSeam replaces every remote LP's mailbox with a socket outbox.
func (n *Net[V]) openSeam() error {
	sn, err := n.scalar()
	if err != nil {
		return err
	}
	for i := range sn.Inboxes {
		if !sn.Local(i) {
			sn.Inboxes[i] = &outbox{seam: sn.seam, dst: i, transit: &sn.Transit}
		}
	}
	return nil
}

// bindSeam wires the seam to the local mailboxes: inbound batches decode
// and deliver with one PutAll (atomicity preserved), a link failure fails
// the run as a transport SimError, and the heartbeat probe samples
// progress. It returns the unhook, so a late failure cannot touch a
// finished run.
func (n *Net[V]) bindSeam(progress func() (events uint64, idle bool)) func() {
	sn, _ := n.scalar() // openSeam has already vetted the plane
	for _, i := range sn.locals {
		ib := sn.Inboxes[i]
		sn.seam.Bind(i, func(ws []wire.Msg) {
			batch := make([]Msg[logic.Value], len(ws))
			for j, w := range ws {
				batch[j] = Decode(w)
			}
			ib.PutAll(batch)
		})
	}
	sn.seam.OnDown(func(err error) {
		sn.Fail(&supervise.SimError{
			Engine: sn.engine, LP: -1, Phase: "transport",
			Kind: supervise.KindInternal, Cause: err,
		})
	})
	sn.seam.SetProgress(progress)
	return func() {
		sn.seam.OnDown(nil)
		sn.seam.SetProgress(nil)
	}
}
