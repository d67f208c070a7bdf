package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestCounterRoundTrip(t *testing.T) {
	var s LPCounters
	for c := Counter(0); c < NumCounters; c++ {
		if s.Get(c) != 0 {
			t.Fatalf("zero block: %v = %d", c, s.Get(c))
		}
	}
	s.Evaluations = 1
	s.EventsApplied = 2
	s.EventsScheduled = 3
	s.MessagesSent = 4
	s.MessagesRecv = 5
	s.NullsSent = 6
	s.NullsRecv = 7
	s.Rollbacks = 8
	s.EventsRolledBack = 9
	s.AntiMessagesSent = 10
	s.AntiMessagesRecv = 11
	s.StateSaves = 12
	s.StateSavedWords = 13
	s.Steps = 14
	s.Blocks = 15
	s.NullsFolded = 16
	s.PoolHits = 17
	s.PoolMisses = 18
	s.Parks = 19
	// Get must agree with the named fields for every enum value: each
	// counter was set to its ordinal+1.
	for c := Counter(0); c < NumCounters; c++ {
		if got := s.Get(c); got != uint64(c)+1 {
			t.Errorf("Get(%v) = %d, want %d", c, got, uint64(c)+1)
		}
	}
	var sum LPCounters
	sum.Add(s)
	sum.Add(s)
	s.Each(func(c Counter, v uint64) {
		if sum.Get(c) != 2*v {
			t.Errorf("Add: %v = %d, want %d", c, sum.Get(c), 2*v)
		}
	})
	names := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		n := c.String()
		if names[n] {
			t.Errorf("duplicate counter name %q", n)
		}
		names[n] = true
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 1, 2, 3, 4, 900} {
		h.Observe(v)
	}
	if h.Count() != 7 || h.Sum() != 911 || h.Max() != 900 {
		t.Fatalf("count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	want := map[uint64]uint64{0: 1, 1: 2, 3: 2, 7: 1, 1023: 1}
	bs := h.Buckets()
	if len(bs) != len(want) {
		t.Fatalf("buckets = %v, want bounds %v", bs, want)
	}
	for _, b := range bs {
		if want[b.Hi] != b.Count {
			t.Errorf("bucket hi=%d count=%d, want %d", b.Hi, b.Count, want[b.Hi])
		}
	}
}

func TestRegistryReport(t *testing.T) {
	r := NewRegistry("cmb")
	r.SetLabel("circuit", "dag300")
	r.SetGauge("migrations", 3)
	a, b := r.LP(0), r.LP(1)
	a.Evaluations = 10
	a.NullsSent = 4
	a.Hist(HistStepEvents).Observe(2)
	b.Evaluations = 5
	b.NullsRecv = 4
	g := r.Globals()
	g.Barriers = 7
	g.GVTRounds = 2
	g.WallNs = 1000

	if r.NumLPs() != 2 {
		t.Fatalf("NumLPs = %d", r.NumLPs())
	}
	if tot := r.Totals(); tot.Evaluations != 15 || tot.NullsSent != 4 {
		t.Fatalf("totals = %+v", tot)
	}

	rep := r.Report()
	if rep.Schema != ReportSchema || rep.Engine != "cmb" {
		t.Fatalf("header = %q %q", rep.Schema, rep.Engine)
	}
	if rep.Total(Evaluations) != 15 || rep.Total(NullsRecv) != 4 {
		t.Fatalf("typed totals: evals=%d nullsRecv=%d", rep.Total(Evaluations), rep.Total(NullsRecv))
	}
	if rep.Globals.Barriers != 7 || rep.Globals.GVTRounds != 2 {
		t.Fatalf("globals = %+v", rep.Globals)
	}
	if rep.LPs[0].Histograms["step_events"].Count != 1 {
		t.Fatalf("lp0 histograms = %+v", rep.LPs[0].Histograms)
	}
	if len(rep.LPs[1].Histograms) != 0 {
		t.Fatalf("lp1 histograms should be empty: %+v", rep.LPs[1].Histograms)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if back.Total(Evaluations) != 15 || back.Labels["circuit"] != "dag300" || back.Gauges["migrations"] != 3 {
		t.Fatalf("round trip lost data: %+v", back)
	}

	if s := rep.Summary(); s == "" {
		t.Fatal("empty summary")
	}
}

// TestMergedHist: Absorb merges another registry's histograms into the
// same LP's block.
func TestMergedHist(t *testing.T) {
	r, o := NewRegistry("tw"), NewRegistry("tw")
	r.LP(0).Hist(HistRollbackDepth).Observe(8)
	o.LP(0).Hist(HistRollbackDepth).Observe(16)
	r.Absorb(o)
	m := r.LP(0).Hist(HistRollbackDepth)
	if m.Count() != 2 || m.Sum() != 24 || m.Max() != 16 {
		t.Fatalf("merged = count %d sum %d max %d", m.Count(), m.Sum(), m.Max())
	}
}

func TestPProfDo(t *testing.T) {
	r := NewRegistry("seq")
	ran := false
	Do(r, "seq", 0, "run", func() { ran = true }) // disabled: direct call
	if !ran {
		t.Fatal("f not called with labels disabled")
	}
	r.EnablePProf()
	ran = false
	Do(r, "seq", 3, "run", func() { ran = true }) // labeled path
	if !ran {
		t.Fatal("f not called with labels enabled")
	}
	ran = false
	Do(r, "seq", -1, "coordinate", func() { ran = true }) // role labels
	if !ran {
		t.Fatal("f not called with role labels")
	}
	Do(nil, "seq", 0, "run", func() {}) // nil sink must not panic
}
