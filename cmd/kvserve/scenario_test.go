package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"addrkv"
	"addrkv/internal/cluster"
	"addrkv/internal/resp"
	"addrkv/internal/telemetry"
)

// newScenarioServer builds a test server with a chosen index (SCAN
// needs an ordered one) and optional maxmemory, in either dispatch
// mode.
func newScenarioServer(t *testing.T, shards int, index addrkv.IndexKind, maxMem int64, workers bool) *server {
	t.Helper()
	sys, err := addrkv.New(addrkv.Options{
		Keys:       2000,
		Shards:     shards,
		Index:      index,
		Mode:       addrkv.ModeSTLT,
		RedisLayer: true,
		MaxMemory:  maxMem,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(sys, defaultSlowlogCap)
	if workers {
		startTestWorkers(t, s)
	}
	return s
}

// scanCursorFor renders the continuation cursor SCAN would return
// after emitting key.
func scanCursorFor(key string) string {
	return string(addrkv.AppendCursor(nil, []byte(key)))
}

// scenarioScript is the SCAN/RANGE/TTL command stream the differential
// tests replay, in two sections with a 6-second clock advance between
// them (the PEXPIRE 5000 deadlines die, the EXPIRE 100 ones survive).
func scenarioScript() (sec1, sec2 [][]string) {
	for i := 0; i < 30; i++ {
		sec1 = append(sec1, []string{"SET", fmt.Sprintf("k:%02d", i), fmt.Sprintf("val-%d", i)})
	}
	for i := 0; i < 10; i++ {
		sec1 = append(sec1, []string{"EXPIRE", fmt.Sprintf("k:%02d", i), "100"})
	}
	for i := 10; i < 15; i++ {
		sec1 = append(sec1, []string{"PEXPIRE", fmt.Sprintf("k:%02d", i), "5000"})
	}
	sec1 = append(sec1,
		[]string{"TTL", "k:00"},             // 100
		[]string{"PTTL", "k:05"},            // 100000
		[]string{"TTL", "k:10"},             // 5 (rounded up from 5000ms)
		[]string{"TTL", "k:20"},             // -1: present, no deadline
		[]string{"TTL", "missing"},          // -2
		[]string{"EXPIRE", "missing", "10"}, // 0
		[]string{"EXPIRE", "k:00", "junk"},  // error
		[]string{"SCAN", "0"},
		[]string{"SCAN", "0", "COUNT", "5"},
		[]string{"SCAN", scanCursorFor("k:09"), "COUNT", "7"},
		[]string{"SCAN", "0", "MATCH", "k:0?", "COUNT", "50"},
		[]string{"SCAN", "0", "COUNT", "50", "MATCH", "k:1*"}, // options in either order
		[]string{"SCAN", "0", "MATCH", "no-such-prefix*"},     // cursor advances, empty page
		[]string{"SCAN", scanCursorFor("k:04"), "MATCH", "k:[0-1]?", "COUNT", "8"},
		[]string{"SCAN", "not-a-cursor"},        // error
		[]string{"SCAN", "0", "COUNT", "zero"},  // error
		[]string{"SCAN", "0", "MATCH"},          // error: odd option tail
		[]string{"SCAN", "0", "FILTER", "k:0*"}, // error: unknown option
		[]string{"RANGE", "k:05", "k:12"},
		[]string{"RANGE", "-", "+", "6"},
		[]string{"RANGE", "k:28", "+"},
		[]string{"RANGE", "-", "k:02"},
		[]string{"EXISTS", "k:11"},
		[]string{"DEL", "k:29"},
		[]string{"GET", "k:13"},
	)
	// The TTL verbs ride the shard rings between GETs and SETs of other
	// keys (other shards, with 2 of them) without flushing the window,
	// and a bad integer answers in its place in the burst.
	for i := 15; i < 22; i++ {
		k, n := fmt.Sprintf("k:%02d", i), fmt.Sprintf("n:%02d", i)
		sec1 = append(sec1,
			[]string{"GET", k},
			[]string{"PEXPIRE", k, "90000"},
			[]string{"SET", n, "fresh"},
			[]string{"TTL", k},          // 90
			[]string{"EXPIRE", n, "9x"}, // error
			[]string{"PTTL", k},         // 90000
			[]string{"EXPIRE", n, "200"},
			[]string{"GET", n},
			[]string{"TTL", n}, // 200
		)
	}
	sec2 = append(sec2,
		[]string{"GET", "k:10"},  // dead: lazy reap
		[]string{"TTL", "k:11"},  // dead: -2 (the query reaps it)
		[]string{"PTTL", "k:12"}, // dead
		[]string{"TTL", "k:00"},  // 94 seconds left
		[]string{"SCAN", "0", "COUNT", "30"},
		[]string{"SCAN", "0", "MATCH", "k:*", "COUNT", "30"}, // post-expiry filtered walk
		[]string{"RANGE", "k:09", "k:16"},
		[]string{"SET", "k:10", "reborn"},
		[]string{"TTL", "k:10"}, // -1: SET discarded nothing, fresh key
		[]string{"GET", "k:10"},
		[]string{"DBSIZE"},
	)
	return sec1, sec2
}

// TestServerScanTTLWorkerMatchesMutex extends the dispatch-mode
// differential to the scenario surface: the same SCAN/RANGE/EXPIRE/
// TTL/PTTL stream over a deterministic clock must produce identical
// replies AND bit-for-bit identical modeled statistics on the worker
// runtime and on the lock-per-op reference server. SCAN/RANGE are
// ordering barriers, the TTL verbs ride the rings; none of that
// machinery may perturb the engine model.
func TestServerScanTTLWorkerMatchesMutex(t *testing.T) {
	sec1, sec2 := scenarioScript()
	for _, shards := range []int{1, 2} {
		worker := newScenarioServer(t, shards, addrkv.IndexBTree, 0, true)
		mutex := newScenarioServer(t, shards, addrkv.IndexBTree, 0, false)
		var wClock, mClock atomic.Int64
		wClock.Store(1_000_000_000)
		mClock.Store(1_000_000_000)
		worker.sys.SetClock(wClock.Load)
		mutex.sys.SetClock(mClock.Load)

		wr := runScript(t, worker, sec1, 9)
		mr := runScript(t, mutex, sec1, 9)
		wClock.Add(6_000_000_000) // 6s: the PEXPIRE 5000 keys die
		mClock.Add(6_000_000_000)
		wr = append(wr, runScript(t, worker, sec2, 9)...)
		mr = append(mr, runScript(t, mutex, sec2, 9)...)

		script := append(append([][]string{}, sec1...), sec2...)
		if len(wr) != len(mr) {
			t.Fatalf("shards=%d: %d worker replies vs %d mutex", shards, len(wr), len(mr))
		}
		for i := range wr {
			if wr[i] != mr[i] {
				t.Fatalf("shards=%d reply %d (%v): worker %q vs mutex %q",
					shards, i, script[i], wr[i], mr[i])
			}
		}
		wrep, mrep := worker.sys.Report(), mutex.sys.Report()
		if wrep.Ops != mrep.Ops || wrep.Cycles != mrep.Cycles ||
			wrep.Scans != mrep.Scans || wrep.Expired != mrep.Expired {
			t.Fatalf("shards=%d stats diverged: ops %d/%d cycles %d/%d scans %d/%d expired %d/%d",
				shards, wrep.Ops, mrep.Ops, wrep.Cycles, mrep.Cycles,
				wrep.Scans, mrep.Scans, wrep.Expired, mrep.Expired)
		}
		for i := range wrep.PerShard {
			if wrep.PerShard[i] != mrep.PerShard[i] {
				t.Fatalf("shard %d diverged:\nworker: %+v\nmutex:  %+v",
					i, wrep.PerShard[i], mrep.PerShard[i])
			}
		}
		// Spot-check absolute values (both modes could be wrong together):
		// TTL k:00 before the advance is 100s, after it 94s; the last
		// interleaved burst answers in command order.
		if wr[45] != "int64:100" {
			t.Fatalf("shards=%d: TTL k:00 = %q, want 100", shards, wr[45])
		}
		if got := wr[len(sec1)+3]; got != "int64:94" {
			t.Fatalf("shards=%d: post-advance TTL k:00 = %q, want 94", shards, got)
		}
		want := []string{"$val-21", "int64:1", "string:OK", "int64:90",
			"-ERR value is not an integer or out of range", "int64:90000", "int64:1", "$fresh", "int64:200"}
		if got := wr[len(sec1)-9 : len(sec1)]; !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: interleaved TTL burst = %q, want %q", shards, got, want)
		}
		// Every well-formed single-key command went over a ring — the
		// TTL verbs included — and nothing else did.
		var rode, drained uint64
		for _, c := range script {
			if row := lookupCommand([]byte(c[0])); row != nil && row.rides(len(c)) {
				rode++
			}
		}
		rode -= 8 // the EXPIREs with a bad integer are refused before the ring
		for _, st := range worker.sys.Cluster().RuntimeStats() {
			drained += st.DrainedOps
		}
		if drained != rode {
			t.Fatalf("shards=%d: workers drained %d ops, the script has %d single-key commands", shards, drained, rode)
		}
	}
}

// TestServerScanReplyShape pins the SCAN/RANGE wire format on one
// mutex server: cursor placement, page boundaries, terminal cursor,
// and the flat RANGE pair array.
func TestServerScanReplyShape(t *testing.T) {
	s := newScenarioServer(t, 2, addrkv.IndexBTree, 0, false)
	for i := 0; i < 12; i++ {
		call(t, s, "SET", fmt.Sprintf("k:%02d", i), fmt.Sprintf("v%d", i))
	}
	// Full-page SCAN: continuation cursor plus the first 10 keys.
	rep := call(t, s, "SCAN", "0").([]any)
	if len(rep) != 2 {
		t.Fatalf("SCAN reply has %d elements", len(rep))
	}
	if got, want := string(rep[0].([]byte)), scanCursorFor("k:09"); got != want {
		t.Fatalf("continuation cursor = %q, want %q", got, want)
	}
	page := rep[1].([]any)
	if len(page) != 10 || string(page[0].([]byte)) != "k:00" || string(page[9].([]byte)) != "k:09" {
		t.Fatalf("first page = %v", page)
	}
	// Resume from the cursor: the remaining 2 keys and the terminal
	// cursor.
	rep = call(t, s, "SCAN", string(rep[0].([]byte))).([]any)
	if got := string(rep[0].([]byte)); got != "0" {
		t.Fatalf("terminal cursor = %q, want 0", got)
	}
	page = rep[1].([]any)
	if len(page) != 2 || string(page[0].([]byte)) != "k:10" || string(page[1].([]byte)) != "k:11" {
		t.Fatalf("second page = %v", page)
	}
	// RANGE replies flat [k, v, k, v, ...].
	flat := call(t, s, "RANGE", "k:03", "k:05").([]any)
	if len(flat) != 6 || string(flat[0].([]byte)) != "k:03" || string(flat[1].([]byte)) != "v3" ||
		string(flat[4].([]byte)) != "k:05" || string(flat[5].([]byte)) != "v5" {
		t.Fatalf("RANGE reply = %v", flat)
	}
}

// TestServerScanMatch pins the MATCH contract: the filter applies
// after the page is scanned, so COUNT bounds keys scanned (not keys
// returned) and the continuation cursor follows the last SCANNED key —
// a page whose keys all fail the filter still advances the walk.
func TestServerScanMatch(t *testing.T) {
	s := newScenarioServer(t, 2, addrkv.IndexBTree, 0, false)
	for i := 0; i < 12; i++ {
		call(t, s, "SET", fmt.Sprintf("k:%02d", i), "v")
	}
	call(t, s, "SET", "other", "v") // sorts after every k:*

	// Page of 5 scans k:00..k:04; "k:0[13]" keeps two of them. The
	// cursor must point at k:04 (last scanned), not k:03 (last match).
	rep := call(t, s, "SCAN", "0", "MATCH", "k:0[13]", "COUNT", "5").([]any)
	if got, want := string(rep[0].([]byte)), scanCursorFor("k:04"); got != want {
		t.Fatalf("continuation cursor = %q, want %q", got, want)
	}
	page := rep[1].([]any)
	if len(page) != 2 || string(page[0].([]byte)) != "k:01" || string(page[1].([]byte)) != "k:03" {
		t.Fatalf("filtered page = %v", page)
	}

	// A pattern matching nothing on this page returns an empty array but
	// still advances the cursor over the scanned run.
	rep = call(t, s, "SCAN", "0", "MATCH", "zz*", "COUNT", "4").([]any)
	if got, want := string(rep[0].([]byte)), scanCursorFor("k:03"); got != want {
		t.Fatalf("empty-page cursor = %q, want %q", got, want)
	}
	if page := rep[1].([]any); len(page) != 0 {
		t.Fatalf("empty-page reply = %v, want []", page)
	}

	// Resuming the filtered walk to completion sees every matching key
	// exactly once, in order.
	var got []string
	cursor := "0"
	for {
		rep := call(t, s, "SCAN", cursor, "MATCH", "k:*", "COUNT", "3").([]any)
		for _, k := range rep[1].([]any) {
			got = append(got, string(k.([]byte)))
		}
		cursor = string(rep[0].([]byte))
		if cursor == "0" {
			break
		}
	}
	if len(got) != 12 || got[0] != "k:00" || got[11] != "k:11" {
		t.Fatalf("filtered walk = %v", got)
	}

	// Option validation: odd tails and unknown options are syntax
	// errors, bad cursors stay bad.
	for _, bad := range [][]string{
		{"SCAN", "0", "MATCH"},
		{"SCAN", "0", "FILTER", "x"},
		{"SCAN", "0", "MATCH", "a", "COUNT"},
	} {
		if _, ok := call(t, s, bad...).(error); !ok {
			t.Fatalf("%v did not error", bad)
		}
	}
}

// TestServerIdleExpiry: with a sweep interval set, the served
// configuration (worker runtime, no cycle budget) reaps keys whose
// deadline passed although no command ever reaches their shards again —
// the ticker does it, not traffic.
func TestServerIdleExpiry(t *testing.T) {
	s := newTestServerShards(t, 2)
	var clock atomic.Int64
	clock.Store(1_000_000_000)
	s.sys.SetClock(clock.Load)
	for i := 0; i < 8; i++ {
		call(t, s, "SET", fmt.Sprintf("k:%02d", i), "v")
		call(t, s, "PEXPIRE", fmt.Sprintf("k:%02d", i), "200")
	}
	s.startExpiry(time.Millisecond)
	t.Cleanup(s.stopSweeper)
	startTestWorkers(t, s)

	clock.Add(3_000_000_000) // every deadline is now dead; send nothing
	waitFor(t, 5*time.Second, "the idle server to reap all 8 keys", func() bool {
		return s.sweepReaped.Load() == 8
	})
	if got := s.sys.Len(); got != 0 {
		t.Fatalf("%d keys left after the sweep, want 0", got)
	}
	info := string(call(t, s, "INFO").([]byte))
	for _, want := range []string{"sweep_reaped_total:8", "expired_keys:8", "expires_armed:0"} {
		if !strings.Contains(info, want) {
			t.Fatalf("INFO missing %q:\n%s", want, info)
		}
	}
	// Active expiry has series of its own, so it can be alerted on.
	if got := samples(t, scrape(t, s))["addrkv_expiry_sweep_reaped_total"]; got != 8 {
		t.Fatalf("addrkv_expiry_sweep_reaped_total = %v after the sweep reaped 8", got)
	}
}

// TestServerDrainBurstSweep: each worker drain burst sweeps its own
// shard, so traffic to OTHER keys reaps a shard's dead keys without
// waiting for the ticker (an hour away here), and the removals are
// logged — a restart replays them instead of resurrecting the keys.
func TestServerDrainBurstSweep(t *testing.T) {
	const armed = 16
	dir := t.TempDir()
	s := newPersistServer(t, 2, dir, "always", false)
	var clock atomic.Int64
	clock.Store(1_000_000_000)
	s.sys.SetClock(clock.Load)
	for i := 0; i < armed; i++ {
		call(t, s, "SET", fmt.Sprintf("ttl:%02d", i), "v")
		call(t, s, "PEXPIRE", fmt.Sprintf("ttl:%02d", i), "1000")
	}
	s.startExpiry(time.Hour)
	if err := s.startWorkers(); err != nil {
		t.Fatal(err)
	}
	clock.Add(5_000_000_000)

	r, w, conn := pipeClient(t, s)
	for i := 0; s.sys.ExpiresArmed() > 0; i++ {
		if i == 1000 {
			t.Fatalf("%d deadlines still armed after 1000 unrelated GETs", s.sys.ExpiresArmed())
		}
		w.WriteCommand([]byte("GET"), []byte(fmt.Sprintf("other:%d", i)))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if v, err := r.ReadReply(); err != nil || v != nil {
			t.Fatalf("GET other:%d = %v, %v", i, v, err)
		}
	}
	if got := s.sys.Len(); got != 0 {
		t.Fatalf("%d keys left after the drain-burst sweeps, want 0", got)
	}
	if n := s.sweepCycles.Load(); n != 0 {
		t.Fatalf("the ticker ran %d cycle(s); the drain bursts were meant to reap", n)
	}
	conn.Close()
	s.drain()
	s.stopSweeper()
	shutdownPersist(s)

	re := newPersistServer(t, 2, dir, "always", false)
	defer shutdownPersist(re)
	if got := re.persist.recovered.ExpireDels; got != armed {
		t.Fatalf("recovery replayed %d logged expiry removals, want %d", got, armed)
	}
	if got := re.sys.Len(); got != 0 {
		t.Fatalf("%d keys resurrected by recovery", got)
	}
}

// TestServerScanRangeUnorderedTypedError: SCAN/RANGE against every
// -index value — the hash indexes fail with the typed RESP error
// naming the fix, never a silent empty array; the trees serve.
func TestServerScanRangeUnorderedTypedError(t *testing.T) {
	for _, tc := range []struct {
		index   addrkv.IndexKind
		ordered bool
	}{
		{addrkv.IndexChainHash, false},
		{addrkv.IndexDenseHash, false},
		{addrkv.IndexRBTree, true},
		{addrkv.IndexBTree, true},
	} {
		t.Run(string(tc.index), func(t *testing.T) {
			s := newScenarioServer(t, 2, tc.index, 0, false)
			call(t, s, "SET", "a", "1")
			scanRep := call(t, s, "SCAN", "0")
			rangeRep := call(t, s, "RANGE", "-", "+")
			if tc.ordered {
				if _, ok := scanRep.([]any); !ok {
					t.Fatalf("SCAN on %s = %v, want array", tc.index, scanRep)
				}
				if _, ok := rangeRep.([]any); !ok {
					t.Fatalf("RANGE on %s = %v, want array", tc.index, rangeRep)
				}
				return
			}
			for name, rep := range map[string]any{"SCAN": scanRep, "RANGE": rangeRep} {
				err, ok := rep.(error)
				if !ok {
					t.Fatalf("%s on %s = %v, want typed error", name, tc.index, rep)
				}
				if !strings.Contains(err.Error(), "ordered index") || !strings.Contains(err.Error(), "btree") {
					t.Fatalf("%s error %q does not name the fix", name, err)
				}
			}
		})
	}
}

// clusterScenarioOps: the scenario command stream constrained to what
// a 1-node cluster serves (it owns every slot, so everything).
func clusterScenarioOps() [][]string {
	var ops [][]string
	for i := 0; i < 40; i++ {
		ops = append(ops, []string{"SET", fmt.Sprintf("ck:%02d", i), fmt.Sprintf("cv-%d", i)})
	}
	for i := 0; i < 10; i++ {
		ops = append(ops, []string{"EXPIRE", fmt.Sprintf("ck:%02d", i), "500"})
	}
	ops = append(ops,
		[]string{"TTL", "ck:03"},
		[]string{"PTTL", "ck:04"},
		[]string{"TTL", "ck:20"},
		[]string{"SCAN", "0", "COUNT", "15"},
		[]string{"SCAN", scanCursorFor("ck:20"), "COUNT", "50"},
		[]string{"RANGE", "ck:10", "ck:14"},
		[]string{"RANGE", "-", "+", "8"},
		[]string{"EXISTS", "ck:05"},
		[]string{"DEL", "ck:06"},
		[]string{"TTL", "ck:06"},
		[]string{"GET", "ck:07"},
	)
	return ops
}

// TestClusterScanTTLSingleNodeDifferential: a 1-node cluster must be
// bit-for-bit identical to standalone kvserve on the SCAN/TTL surface
// too — same replies, same modeled Report — in both dispatch modes.
// Cluster mode's classify-time scan check and per-key gate may not
// perturb the engine model when no migration is running.
func TestClusterScanTTLSingleNodeDifferential(t *testing.T) {
	ops := clusterScenarioOps()
	for _, workers := range []bool{false, true} {
		t.Run(fmt.Sprintf("workers=%v", workers), func(t *testing.T) {
			sa := newScenarioServer(t, 2, addrkv.IndexBTree, 0, workers)
			cl := newScenarioServer(t, 2, addrkv.IndexBTree, 0, workers)
			nodes := []cluster.NodeInfo{{Addr: "node-0", Bus: reserveAddr(t)}}
			if err := cl.setupCluster(nodes, 0, clusterOpts{rewarm: true, batch: 8}); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.closeCluster)

			var saClock, clClock atomic.Int64
			saClock.Store(5_000_000_000)
			clClock.Store(5_000_000_000)
			sa.sys.SetClock(saClock.Load)
			cl.sys.SetClock(clClock.Load)

			if workers {
				ra := runScript(t, sa, ops, 10)
				rb := runScript(t, cl, ops, 10)
				for i := range ra {
					if ra[i] != rb[i] {
						t.Fatalf("%v: standalone %q != cluster %q", ops[i], ra[i], rb[i])
					}
				}
			} else {
				csA, csB := &connState{id: 1}, &connState{id: 1}
				for _, op := range ops {
					ra := callCS(t, sa, csA, op...)
					rb := callCS(t, cl, csB, op...)
					if !reflect.DeepEqual(ra, rb) {
						t.Fatalf("%v: standalone %v != cluster %v", op, ra, rb)
					}
				}
			}
			if !reflect.DeepEqual(sa.sys.Report(), cl.sys.Report()) {
				t.Fatalf("modeled stats diverged:\nstandalone: %+v\ncluster:    %+v",
					sa.sys.Report(), cl.sys.Report())
			}
		})
	}
}

// TestClusterScanTryAgainWhileMigrating: while any slot is migrating
// or importing, SCAN and RANGE are refused with -TRYAGAIN at the RESP
// layer — a node-local scan during a slot move would silently miss or
// duplicate the in-flight records. Pinned in both dispatch modes, and
// the refusal must lift as soon as the slot map stabilizes.
func TestClusterScanTryAgainWhileMigrating(t *testing.T) {
	for _, workers := range []bool{false, true} {
		t.Run(fmt.Sprintf("workers=%v", workers), func(t *testing.T) {
			srvs := newTestCluster(t, 2, workers)
			s0, s1 := srvs[0], srvs[1]

			issue := func(s *server, args ...string) any {
				if !workers {
					return callCS(t, s, &connState{id: 9}, args...)
				}
				r, w, c := pipeClient(t, s)
				defer c.Close()
				ba := make([][]byte, len(args))
				for i, a := range args {
					ba[i] = []byte(a)
				}
				w.WriteCommand(ba...)
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				v, err := r.ReadReply()
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			wantTryAgain := func(rep any, label string) {
				t.Helper()
				err, ok := rep.(error)
				if !ok || !strings.HasPrefix(err.Error(), "TRYAGAIN") {
					t.Fatalf("%s = %v, want TRYAGAIN", label, rep)
				}
			}

			// Stable map: SCAN reaches the engine (chainhash here, so the
			// typed unordered error — proof the scan check let it through).
			rep := issue(s0, "SCAN", "0")
			if err, ok := rep.(error); !ok || !strings.Contains(err.Error(), "ordered index") {
				t.Fatalf("stable SCAN = %v, want unordered-index error", rep)
			}

			// Migrating source refuses both verbs.
			if _, err := s0.clus.node.BeginMigrate(0, 1); err != nil {
				t.Fatal(err)
			}
			before := s0.clus.node.Metrics.TryAgain.Load()
			wantTryAgain(issue(s0, "SCAN", "0"), "SCAN on migrating source")
			wantTryAgain(issue(s0, "RANGE", "-", "+"), "RANGE on migrating source")
			if got := s0.clus.node.Metrics.TryAgain.Load(); got != before+2 {
				t.Fatalf("TryAgain counter = %d, want %d", got, before+2)
			}

			// Importing destination refuses too.
			if err := s1.clus.node.BeginImport(9000, 1); err == nil {
				t.Fatal("BeginImport of an unowned-slot pairing succeeded unexpectedly")
			}
			if err := s1.clus.node.BeginImport(100, 0); err != nil {
				t.Fatal(err)
			}
			wantTryAgain(issue(s1, "SCAN", "0"), "SCAN on importing destination")

			// Abort: the refusal lifts immediately.
			s0.clus.node.AbortMigrate(0)
			rep = issue(s0, "SCAN", "0")
			if err, ok := rep.(error); !ok || !strings.Contains(err.Error(), "ordered index") {
				t.Fatalf("post-abort SCAN = %v, want unordered-index error again", rep)
			}
		})
	}
}

// TestServerMaxMemoryEviction: a maxmemory server evicts under write
// pressure, keeps serving, stays under budget, and surfaces the churn
// through INFO.
func TestServerMaxMemoryEviction(t *testing.T) {
	const maxMem = 4 * 1024
	s := newScenarioServer(t, 1, addrkv.IndexBTree, maxMem, false)
	val := strings.Repeat("x", 100)
	for i := 0; i < 200; i++ {
		if got := call(t, s, "SET", fmt.Sprintf("e:%04d", i), val); got != "OK" {
			t.Fatalf("SET %d = %v", i, got)
		}
	}
	if used := s.sys.UsedBytes(); used > maxMem {
		t.Fatalf("used_bytes %d over the %d budget", used, maxMem)
	}
	rep := s.sys.Report()
	if rep.Evicted == 0 {
		t.Fatal("no evictions under write pressure")
	}
	info := string(call(t, s, "INFO").([]byte))
	if !strings.Contains(info, fmt.Sprintf("evicted_keys:%d", rep.Evicted)) {
		t.Fatalf("INFO missing evicted_keys:%d:\n%s", rep.Evicted, info)
	}
	if !strings.Contains(info, "used_bytes:") {
		t.Fatalf("INFO missing used_bytes:\n%s", info)
	}
	// The newest key survived (it was just written), the store still
	// answers.
	if got := call(t, s, "GET", "e:0199"); got == nil {
		t.Fatal("most recent key evicted immediately")
	}
}

// TestServerScanExpireHotPathAllocs extends the allocation budgets to
// the scenario hot paths over a served worker-mode connection. The TTL
// verbs ride the rings like SET/GET (pinned at 0 by
// TestServerHotPathZeroAlloc) and pay only for EXPIRE's integer; SCAN
// is a barrier command and copies its page out; the multi-key verbs
// are barrier commands whose Reqs come from the connection's slab:
//
//	EXPIRE + TTL round trip   <= 1 alloc (the string strconv parses)
//	SCAN page of 5 keys       <= 25 allocs (per-shard key copies +
//	                          page slice + cursor reply; copying out
//	                          is the contract)
//	MGET of 8 keys            <= 1 alloc (DoBatch's per-shard groups)
//	MSET of 4 pairs           <= 9 allocs (the groups + the btree
//	DEL of 4 absent keys      <= 9 allocs  index's node reads, 2/key)
//
// SCAN's budget is a ceiling just above the measured steady state
// (22); the others are the measured numbers (at a8c76a5, before
// multi-key commands became Reqs: 15, 14 and 11). The point is catching
// per-command, per-key or per-byte regressions.
func TestServerScanExpireHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on channel handoffs")
	}
	s := newScenarioServer(t, 1, addrkv.IndexBTree, 0, true)
	// Raise the slowlog floor so nanosecond-scale ops never qualify and
	// the entry construction (which allocates) is skipped.
	for i := 0; i < defaultSlowlogCap; i++ {
		s.tele.slowlog.Note(telemetry.SlowlogEntry{Duration: time.Hour})
	}
	for i := 0; i < 8; i++ {
		call(t, s, "SET", fmt.Sprintf("hot:%d", i), "v")
	}

	client, srv := net.Pipe()
	if !s.track(srv) {
		t.Fatal("track refused connection")
	}
	go s.serve(srv)
	t.Cleanup(func() { client.Close() })

	// Capture each pipeline's exact reply bytes a command at a time,
	// then drive the served connection against that expectation.
	wire := func(cmds [][]string) (req, rep []byte) {
		var reqBuf bytes.Buffer
		cw := resp.NewWriter(&reqBuf)
		for _, c := range cmds {
			ba := make([][]byte, len(c))
			for i, a := range c {
				ba[i] = []byte(a)
			}
			cw.WriteCommand(ba...)
		}
		cw.Flush()
		var repBuf bytes.Buffer
		rw := resp.NewWriter(&repBuf)
		for _, c := range cmds {
			runOne(s, rw, &connState{id: 99}, c...)
		}
		rw.Flush()
		return reqBuf.Bytes(), repBuf.Bytes()
	}
	roundTrip := func(req []byte, reply []byte) func() {
		return func() {
			if _, err := client.Write(req); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(client, reply); err != nil {
				t.Fatal(err)
			}
		}
	}

	expireReq, expireRep := wire([][]string{
		{"EXPIRE", "hot:3", "1000000"},
		{"TTL", "hot:3"},
	})
	scanReq, scanRep := wire([][]string{{"SCAN", "0", "COUNT", "5"}})
	mgetReq, mgetRep := wire([][]string{{"MGET", "hot:0", "hot:1", "hot:2", "hot:3", "hot:4", "hot:5", "hot:6", "hot:7"}})
	msetReq, msetRep := wire([][]string{{"MSET", "hot:0", "v", "hot:1", "v", "hot:2", "v", "hot:3", "v"}})
	delReq, delRep := wire([][]string{{"DEL", "gone:0", "gone:1", "gone:2", "gone:3"}})

	rts := []struct {
		name   string
		rt     func()
		budget float64
	}{
		{"EXPIRE+TTL", roundTrip(expireReq, make([]byte, len(expireRep))), 1},
		{"SCAN COUNT 5", roundTrip(scanReq, make([]byte, len(scanRep))), 25},
		{"MGET of 8", roundTrip(mgetReq, make([]byte, len(mgetRep))), 1},
		{"MSET of 4", roundTrip(msetReq, make([]byte, len(msetRep))), 9},
		{"DEL of 4", roundTrip(delReq, make([]byte, len(delRep))), 9},
	}
	for i := 0; i < 64; i++ {
		for _, c := range rts {
			c.rt()
		}
	}
	for _, c := range rts {
		n := testing.AllocsPerRun(200, c.rt)
		t.Logf("%s round trip: %.2f allocs", c.name, n)
		if n > c.budget {
			t.Errorf("%s round trip: %.2f allocs, budget %.0f", c.name, n, c.budget)
		}
	}
}
