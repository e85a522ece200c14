package main

import (
	"net"
	"strings"
	"testing"

	"addrkv/internal/resp"
	"addrkv/internal/ycsb"
)

// fakeServer answers GET and SET over one connection from a plain map,
// honestly or with one of three defects the verifier must catch.
func fakeServer(nc net.Conn, w workload, defect string) {
	defer nc.Close()
	store := map[string][]byte{}
	for id := uint64(0); id < uint64(w.keys); id++ {
		store[string(ycsb.KeyName(id))] = ycsb.Value(id, 0, preloadVsize)
	}
	r, wr := resp.NewReader(nc), resp.NewWriter(nc)
	for {
		cmds, err := r.ReadPipeline(0)
		if err != nil {
			return
		}
		for _, args := range cmds {
			key := string(args[1])
			switch strings.ToUpper(string(args[0])) {
			case "SET":
				if defect != "stale" { // a stale server acknowledges and forgets
					store[key] = append([]byte(nil), args[2]...)
				}
				_ = wr.WriteSimple("OK")
			case "GET":
				v, ok := store[key]
				switch {
				case !ok:
					v = nil
				case defect == "truncated":
					v = v[:len(v)-1]
				case defect == "wrong-key":
					v = store[string(ycsb.KeyName(0))]
				}
				_ = wr.WriteBulk(v)
			}
		}
		if wr.Flush() != nil {
			return
		}
	}
}

func TestVerifierCatchesDefects(t *testing.T) {
	w, err := workloadByName("serve-pipeline")
	if err != nil {
		t.Fatal(err)
	}
	w = w.scaled(0.01)
	w.conns = 1
	w.setFrac = 0.3 // enough SETs that a stale read is certain
	for _, defect := range []string{"", "stale", "truncated", "wrong-key"} {
		cli, srv := net.Pipe()
		go fakeServer(srv, w, defect)
		lg := &loadgen{w: w, clients: []*client{newClient(cli, newOpGen(w, 7, 0))}}
		if _, _, err := lg.runCount(4000, new(meter)); err != nil {
			t.Fatalf("defect %q: %v", defect, err)
		}
		if err := lg.readback(0); err != nil {
			t.Fatalf("defect %q: read-back: %v", defect, err)
		}
		lg.close()
		attempted, failed, errs := lg.totals()
		if attempted < 4000 {
			t.Errorf("defect %q: attempted %d ops, want at least 4000", defect, attempted)
		}
		switch {
		case defect == "" && failed != 0:
			t.Errorf("honest server: %d ops failed: %v", failed, errs)
		case defect != "" && failed == 0:
			t.Errorf("defect %q went unnoticed over %d ops", defect, attempted)
		}
	}
}

func TestVerifierCatchesErrorAndShortReplies(t *testing.T) {
	get := op{id: 3, size: preloadVsize}
	set := op{id: 3, set: true, ver: 1, size: 64}
	good := get.value()
	for _, tc := range []struct {
		name string
		o    op
		r    reply
		ok   bool
	}{
		{"exact value", get, reply{kind: '$', body: good}, true},
		{"error reply", get, reply{kind: '-', body: []byte("ERR busy")}, false},
		{"null for a loaded key", get, reply{kind: '$', null: true}, false},
		{"short value", get, reply{kind: '$', body: good[:10]}, false},
		{"value where none can exist", op{id: 9, absent: true}, reply{kind: '$', body: good}, false},
		{"null for an absent key", op{id: 9, absent: true}, reply{kind: '$', null: true}, true},
		{"+OK", set, reply{kind: '+', body: []byte("OK")}, true},
		{"SET answered with a bulk", set, reply{kind: '$', body: []byte("OK")}, false},
		{"SET refused", set, reply{kind: '-', body: []byte("ERR max number of clients reached")}, false},
	} {
		if err := verify(tc.o, tc.r); (err == nil) != tc.ok {
			t.Errorf("%s: verify = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestTransportErrorFailsOutstandingOps(t *testing.T) {
	w, _ := workloadByName("serve-pipeline")
	w = w.scaled(0.01)
	cli, srv := net.Pipe()
	go func() { // answer half a reply, then hang up
		buf := make([]byte, 1<<16)
		_, _ = srv.Read(buf)
		_, _ = srv.Write([]byte("$64\r\nabc"))
		srv.Close()
	}()
	c := newClient(cli, newOpGen(w, 1, 0))
	if err := c.burst(c.fill(w.depth), nil); err == nil {
		t.Fatal("a connection cut mid-reply returned no error")
	}
	if c.failed != int64(w.depth) {
		t.Errorf("failed = %d, want all %d ops of the burst", c.failed, w.depth)
	}
}
