package main

import (
	"bytes"
	"context"
	"testing"
	"time"

	"memotable"
	"memotable/internal/isa"
	"memotable/internal/trace"
)

// maskedSink consumes only integer multiplies.
type maskedSink struct{ n int }

func (s *maskedSink) Emit(trace.Event)     { s.n++ }
func (s *maskedSink) OpMask() trace.OpMask { return trace.MaskOf(isa.OpIMul) }

func TestSinkWrapperForwardsMaskGroupAndIdentity(t *testing.T) {
	in := newInstr(newTracer())
	inner := &maskedSink{}
	grouped := trace.Grouped("g", inner)
	w := in.sink(grouped)
	if in.sink(grouped) != w {
		t.Fatal("one sink must map to one wrapper")
	}
	if trace.SinkMask(w) != trace.MaskOf(isa.OpIMul) {
		t.Errorf("mask %b not forwarded", trace.SinkMask(w))
	}
	if fg, ok := w.(trace.FanoutGrouper); !ok || fg.FanoutGroup() != "g" {
		t.Error("fan-out group not forwarded")
	}
	trace.EmitAll(w, make([]trace.Event, 5))
	if inner.n != 5 || in.sinkEvents()[0] != 5 || len(in.tr.spans) != 1 || in.tr.spans[0].Layer != "trace" {
		t.Errorf("delivered %d, counted %v, spans %+v", inner.n, in.sinkEvents(), in.tr.spans)
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 150}, {Start: 50, End: 50}}
	if got := covered(parent, kids); got != time.Duration(40) {
		t.Errorf("covered = %d, want 40 (10-40 and 90-100)", got)
	}
}

// TestInstrumentedPassMatchesRunContext pins the traced pipeline to the
// CLI's path and the splice to memosim's JSON array format.
func TestInstrumentedPassMatchesRunContext(t *testing.T) {
	names := []string{"table5", "table6"}
	ctx := context.Background()
	want, err := plainPass(ctx, memotable.NewEngine(0), memotable.Tiny, names)
	if err != nil {
		t.Fatal(err)
	}
	in := newInstr(newTracer())
	got, _, err := instrumentedPass(ctx, memotable.NewEngine(0), memotable.Tiny, names, in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("traced pass output differs from RunContext")
	}
	if len(in.keys) == 0 || in.capEvents.Load() == 0 || len(in.tr.spans) == 0 {
		t.Errorf("nothing traced: %d keys, %d capture events, %d spans", len(in.keys), in.capEvents.Load(), len(in.tr.spans))
	}
	docs, err := splitJSONArray(want)
	if err != nil || len(docs) != 2 {
		t.Fatalf("split: %v (%d docs)", err, len(docs))
	}
	one, err := plainPass(ctx, memotable.NewEngine(0), memotable.Tiny, []string{"table6"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spliceJSONArray([][]byte{docs[1].raw}), one) {
		t.Error("spliced single selection differs from its own run")
	}
}
