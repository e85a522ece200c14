package main

import (
	"testing"

	"addrkv/internal/trace"
)

// FuzzParseBundle hammers the dump parser with mutated inputs: it must
// never panic, and anything it accepts must survive a re-marshal
// round trip (the parser is the trust boundary between dumped files on
// disk and every kvtrace subcommand).
func FuzzParseBundle(f *testing.F) {
	// Seed with a realistic bundle...
	tr := trace.NewTracer(2, 8)
	for i := 0; i < 4; i++ {
		op := tr.BeginSampled("get", []byte("seed-key"))
		op.SetBase(100)
		op.Event(trace.EvEngineOp, 100, 0, 0, 0)
		op.Event(trace.EvSTLTProbe, 112, 3, 1, 0)
		op.Event(trace.EvPageWalk, 190, 4, 60, 0)
		op.End(200)
		tr.Finish(op, i%2, true, false)
	}
	seed, err := tr.Snapshot("fuzz", "seed").Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// ...and with shapes that walk the validation paths.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"kind":"trace-bundle","name":"x","ops":[]}`))
	f.Add([]byte(`{"version":1,"kind":"trace-bundle","name":"x","ops":[{"op":"get","events":[{"kind":"stb.hit"}]}]}`))
	f.Add([]byte(`{"version":99,"kind":"trace-bundle"}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := trace.ParseBundle(data)
		if err != nil {
			return
		}
		out, err := b.Marshal()
		if err != nil {
			t.Fatalf("accepted bundle failed to marshal: %v", err)
		}
		if _, err := trace.ParseBundle(out); err != nil {
			t.Fatalf("round trip rejected: %v\noriginal: %q", err, data)
		}
	})
}
