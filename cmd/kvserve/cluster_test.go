package main

import (
	"fmt"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"addrkv/internal/cluster"
	"addrkv/internal/resp"
	"addrkv/internal/wal"
)

// reserveAddr grabs a free loopback port and releases it for the bus
// listener to re-bind (a benign race: tests in this package do not run
// in parallel).
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// clusterConfig is node 0's config in an n-node cluster of 2-shard
// servers with live buses, an even slot split, rewarm on, heartbeats
// off and 8 keys per migration batch. Client addresses in the slot map
// are symbolic ("node-i") — redirect tests match on them; nothing dials
// them.
func clusterConfig(t *testing.T, n int) config {
	t.Helper()
	cfg := testConfig(2)
	cfg.nodes = make([]cluster.NodeInfo, n)
	for i := range cfg.nodes {
		cfg.nodes[i] = cluster.NodeInfo{Addr: fmt.Sprintf("node-%d", i), Bus: reserveAddr(t)}
	}
	cfg.migBatch = 8
	return cfg
}

// newTestCluster builds the n servers of clusterConfig(t, n).
func newTestCluster(t *testing.T, n int, workers bool) []*server {
	return newTestClusterOpts(t, n, workers, func(*config) {})
}

// newTestClusterOpts is newTestCluster with edit applied to every
// node's config — the heartbeat tests pass heartbeats here.
func newTestClusterOpts(t *testing.T, n int, workers bool, edit func(*config)) []*server {
	t.Helper()
	cfg := clusterConfig(t, n)
	edit(&cfg)
	srvs := make([]*server, n)
	for i := range srvs {
		cfg.self = i
		srvs[i] = newConfigServer(t, cfg, workers)
	}
	return srvs
}

// keysInSlot generates count distinct keys that all hash to slot.
func keysInSlot(t *testing.T, slot uint16, count int) []string {
	t.Helper()
	var keys []string
	for i := 0; len(keys) < count; i++ {
		k := fmt.Sprintf("mig:%d", i)
		if cluster.SlotOf([]byte(k)) == slot {
			keys = append(keys, k)
		}
		if i > 5_000_000 {
			t.Fatalf("could not find %d keys in slot %d", count, slot)
		}
	}
	return keys
}

// diffOps is the deterministic command sequence both differential
// tests replay: single-key ops, misses, deletes, and same-slot batches
// (cluster batches must be single-slot, and standalone handles that
// shape identically).
func diffOps(t *testing.T) [][]string {
	t.Helper()
	var ops [][]string
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("user:%d", i)
		ops = append(ops, []string{"SET", k, fmt.Sprintf("val-%d", i)})
	}
	for i := 0; i < 200; i++ {
		ops = append(ops, []string{"GET", fmt.Sprintf("user:%d", i*2)}) // half miss
	}
	for i := 0; i < 50; i++ {
		ops = append(ops, []string{"EXISTS", fmt.Sprintf("user:%d", i*4)})
	}
	for i := 0; i < 30; i++ {
		ops = append(ops, []string{"DEL", fmt.Sprintf("user:%d", i*3)})
	}
	batch := keysInSlot(t, 77, 6)
	mset := []string{"MSET"}
	for i, k := range batch {
		mset = append(mset, k, fmt.Sprintf("bv-%d", i))
	}
	ops = append(ops, mset)
	ops = append(ops, append([]string{"MGET"}, batch...))
	ops = append(ops, append([]string{"DEL"}, batch[:3]...))
	for _, k := range batch {
		ops = append(ops, []string{"GET", k})
	}
	return ops
}

// TestClusterSingleNodeDifferentialMutex pins a 1-node cluster to
// standalone kvserve on the mutex dispatch path: every reply and the
// full modeled statistics report must match exactly — cluster mode's
// gate and routing hooks may not perturb the engine model.
func TestClusterSingleNodeDifferentialMutex(t *testing.T) {
	sa := newTestServerShards(t, 2)
	cl := newTestCluster(t, 1, false)[0]

	csA, csB := &connState{id: 1}, &connState{id: 1}
	for _, op := range diffOps(t) {
		ra := callCS(t, sa, csA, op...)
		rb := callCS(t, cl, csB, op...)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%v: standalone %v != cluster %v", op, ra, rb)
		}
	}
	if !reflect.DeepEqual(sa.sys.Report(), cl.sys.Report()) {
		t.Fatalf("modeled stats diverged:\nstandalone: %+v\ncluster:    %+v",
			sa.sys.Report(), cl.sys.Report())
	}
}

// TestClusterSingleNodeDifferentialWorker is the same pin on the
// worker dispatch path, over real pipelined connections.
func TestClusterSingleNodeDifferentialWorker(t *testing.T) {
	sa := newWorkerServer(t, 2)
	cl := newTestCluster(t, 1, true)[0]

	ra, wa, _ := pipeClient(t, sa)
	rb, wb, _ := pipeClient(t, cl)
	ops := diffOps(t)
	// Bounded bursts: net.Pipe is unbuffered, so a whole-sequence
	// pipeline would deadlock writer against reader. 25 commands per
	// burst still exercises pipelined worker dispatch.
	for start := 0; start < len(ops); start += 25 {
		end := min(start+25, len(ops))
		for _, op := range ops[start:end] {
			ba := make([][]byte, len(op))
			for i, a := range op {
				ba[i] = []byte(a)
			}
			wa.WriteCommand(ba...)
			wb.WriteCommand(ba...)
		}
		if err := wa.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := wb.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := start; i < end; i++ {
			va, erra := ra.ReadReply()
			vb, errb := rb.ReadReply()
			if erra != nil || errb != nil {
				t.Fatalf("op %d: read errors %v / %v", i, erra, errb)
			}
			if !reflect.DeepEqual(va, vb) {
				t.Fatalf("%v: standalone %v != cluster %v", ops[i], va, vb)
			}
		}
	}
	if !reflect.DeepEqual(sa.sys.Report(), cl.sys.Report()) {
		t.Fatalf("modeled stats diverged:\nstandalone: %+v\ncluster:    %+v",
			sa.sys.Report(), cl.sys.Report())
	}
}

// TestClusterMovedRedirect: a key whose slot another node owns gets a
// -MOVED naming that node, on both dispatch paths, and the redirect is
// counted. The op must not touch the engine (no modeled ops recorded).
func TestClusterMovedRedirect(t *testing.T) {
	for _, workers := range []bool{false, true} {
		t.Run(fmt.Sprintf("workers=%v", workers), func(t *testing.T) {
			srvs := newTestCluster(t, 2, workers)
			s0 := srvs[0]
			// A key from the top half of the slot space belongs to node 1.
			key := keysInSlot(t, 12000, 1)[0]
			var got any
			if workers {
				r, w, _ := pipeClient(t, s0)
				w.WriteCommand([]byte("SET"), []byte(key), []byte("v"))
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				v, err := r.ReadReply()
				if err != nil {
					t.Fatal(err)
				}
				got = v
			} else {
				got = callCS(t, s0, &connState{id: 1}, "SET", key, "v")
			}
			err, ok := got.(error)
			if !ok {
				t.Fatalf("reply = %v, want MOVED error", got)
			}
			want := fmt.Sprintf("MOVED %d node-1", cluster.SlotOf([]byte(key)))
			if err.Error() != want {
				t.Fatalf("redirect = %q, want %q", err, want)
			}
			if n := s0.clus.node.Metrics.Moved.Load(); n != 1 {
				t.Fatalf("moved counter = %d", n)
			}
			if rep := s0.sys.Report(); rep.Ops != 0 {
				t.Fatalf("denied op reached the engine: %d modeled ops", rep.Ops)
			}
		})
	}
}

// TestClusterCrossSlot: multi-key commands spanning slots are refused,
// all three by the one check dispatch makes from the row's key
// positions — so none of them counts toward server_ops, which is keys
// that ran.
func TestClusterCrossSlot(t *testing.T) {
	cl := newTestCluster(t, 1, false)[0]
	a := keysInSlot(t, 10, 1)[0]
	b := keysInSlot(t, 11, 1)[0]
	for _, args := range [][]string{
		{"MGET", a, b}, {"DEL", a, b}, {"MSET", a, "1", b, "2"},
	} {
		got := call(t, cl, args...)
		err, ok := got.(error)
		if !ok || !strings.HasPrefix(err.Error(), "CROSSSLOT") {
			t.Fatalf("%s across slots = %v, want CROSSSLOT", args[0], got)
		}
		if n := cl.opsSinceMark.Load(); n != 0 {
			t.Fatalf("refused %s moved server_ops to %d", args[0], n)
		}
	}
	// MSET's values are not keys: a value hashing elsewhere is no
	// cross-slot command.
	if got := call(t, cl, "MSET", a, b); got != "OK" {
		t.Fatalf("MSET %s <value in another slot> = %v", a, got)
	}
}

// TestClusterCommandSurface: CLUSTER SLOTS/INFO shapes, and the
// disabled-on-standalone refusals.
func TestClusterCommandSurface(t *testing.T) {
	sa := newTestServer(t)
	for _, args := range [][]string{{"CLUSTER", "INFO"}, {"ASKING"}} {
		if _, ok := call(t, sa, args...).(error); !ok {
			t.Fatalf("%v on standalone did not error", args)
		}
	}

	srvs := newTestCluster(t, 2, false)
	slots := callCS(t, srvs[0], &connState{id: 1}, "CLUSTER", "SLOTS").([]any)
	if len(slots) != 2 {
		t.Fatalf("CLUSTER SLOTS ranges = %d, want 2", len(slots))
	}
	first := slots[0].([]any)
	if first[0].(int64) != 0 || first[1].(int64) != 8191 {
		t.Fatalf("range 0 = [%v, %v]", first[0], first[1])
	}
	if owner := first[2].([]any); string(owner[0].([]byte)) != "node-0" || owner[1].(int64) != 0 {
		t.Fatalf("range 0 owner = %v", owner)
	}
	info := string(callCS(t, srvs[0], &connState{id: 1}, "CLUSTER", "INFO").([]byte))
	for _, want := range []string{"cluster_state:ok", "cluster_enabled:1", "cluster_known_nodes:2", "cluster_slots_owned:8192"} {
		if !strings.Contains(info, want) {
			t.Fatalf("CLUSTER INFO missing %q:\n%s", want, info)
		}
	}
	// INFO carries the same section; standalone INFO must not.
	if full := string(call(t, srvs[0], "INFO").([]byte)); !strings.Contains(full, "# cluster\r\n") {
		t.Fatal("INFO missing # cluster section in cluster mode")
	}
	if full := string(call(t, sa, "INFO").([]byte)); strings.Contains(full, "# cluster") {
		t.Fatal("standalone INFO grew a cluster section")
	}
}

// TestClusterAskingBypass: an importing slot serves present keys only
// to clients that sent ASKING first, and the flag is one-shot.
func TestClusterAskingBypass(t *testing.T) {
	srvs := newTestCluster(t, 2, false)
	s1 := srvs[1]
	// Slot 100 is owned by node 0; stage an import of it on node 1.
	if err := s1.clus.node.BeginImport(100, 0); err != nil {
		t.Fatal(err)
	}
	key := keysInSlot(t, 100, 1)[0]
	cs := &connState{id: 1}

	// Without ASKING the op redirects to the owner.
	got := callCS(t, s1, cs, "SET", key, "v")
	if err, ok := got.(error); !ok || !strings.HasPrefix(err.Error(), "MOVED") {
		t.Fatalf("un-asked op on importing slot = %v, want MOVED", got)
	}
	// With ASKING it executes here.
	if got := callCS(t, s1, cs, "ASKING"); got != "OK" {
		t.Fatalf("ASKING = %v", got)
	}
	if got := callCS(t, s1, cs, "SET", key, "v"); got != "OK" {
		t.Fatalf("asked SET = %v", got)
	}
	// One-shot: the next command is gated again.
	got = callCS(t, s1, cs, "GET", key)
	if err, ok := got.(error); !ok || !strings.HasPrefix(err.Error(), "MOVED") {
		t.Fatalf("ASKING leaked past one command: %v", got)
	}
}

// TestClusterBusBatchGate pins the destination-side install gate at
// the serving layer: busHandler must refuse a MigBatch unless the
// slot is importing here from exactly the batch's source, so a late
// duplicate batch after the commit cannot re-install stale records.
func TestClusterBusBatchGate(t *testing.T) {
	srvs := newTestCluster(t, 3, false)
	s1 := srvs[1]
	const slot = 100 // owned by node 0 under the even split
	key := keysInSlot(t, slot, 1)[0]
	frames := wal.AppendFrame(nil, wal.RecLoad, []byte(key), []byte("stale"))
	batch := func(src int) cluster.Msg {
		return cluster.Msg{Type: cluster.MsgMigBatch, Payload: cluster.EncodeMigBatch(slot, src, false, frames)}
	}

	if typ, _ := s1.busHandler(batch(0)); typ != cluster.MsgErr {
		t.Fatal("batch for a non-importing slot installed")
	}
	if err := s1.clus.node.BeginImport(slot, 0); err != nil {
		t.Fatal(err)
	}
	if typ, _ := s1.busHandler(batch(2)); typ != cluster.MsgErr {
		t.Fatal("batch from the wrong source installed")
	}
	typ, body := s1.busHandler(batch(0))
	if typ != cluster.MsgAck || cluster.DecodeU64(body) != 1 {
		t.Fatalf("legitimate batch: type=%d installed=%d", typ, cluster.DecodeU64(body))
	}
	// Commit clears the importing mark; a duplicate is now refused.
	next := s1.clus.node.Map().Clone()
	next.Version++
	next.SetOwner(slot, 1)
	s1.clus.node.CommitImport(slot, next)
	if typ, _ := s1.busHandler(batch(0)); typ != cluster.MsgErr {
		t.Fatal("post-commit duplicate batch installed")
	}
}

// TestClusterFlushallGuard: FLUSHALL is refused while any slot is
// migrating or importing on this node — records already shipped to a
// destination would survive a local flush and resurface at commit,
// making the flush silently partial.
func TestClusterFlushallGuard(t *testing.T) {
	srvs := newTestCluster(t, 2, false)
	s0, s1 := srvs[0], srvs[1]
	cs := &connState{id: 1}

	// Importing destination refuses.
	if err := s1.clus.node.BeginImport(100, 0); err != nil {
		t.Fatal(err)
	}
	got := callCS(t, s1, cs, "FLUSHALL")
	if err, ok := got.(error); !ok || !strings.Contains(err.Error(), "migrating or importing") {
		t.Fatalf("FLUSHALL while importing = %v, want refusal", got)
	}

	// Migrating source refuses.
	ownedBy0 := uint16(0)
	if s0.clus.node.Map().Owner(ownedBy0) != 0 {
		t.Fatal("slot 0 not owned by node 0 under the even split")
	}
	if _, err := s0.clus.node.BeginMigrate(ownedBy0, 1); err != nil {
		t.Fatal(err)
	}
	got = callCS(t, s0, cs, "FLUSHALL")
	if err, ok := got.(error); !ok || !strings.Contains(err.Error(), "migrating or importing") {
		t.Fatalf("FLUSHALL while migrating = %v, want refusal", got)
	}

	// Stable nodes flush fine.
	s0.clus.node.AbortMigrate(ownedBy0)
	if got := callCS(t, s0, cs, "FLUSHALL"); got != "OK" {
		t.Fatalf("FLUSHALL on a stable node = %v", got)
	}
}

// TestClusterMigrateOverRESP drives a live migration through the
// command surface: populate a slot on node 0, CLUSTER MIGRATE it to
// node 1, and verify the records moved byte-identically, ownership
// flipped on both nodes, and the source now redirects.
func TestClusterMigrateOverRESP(t *testing.T) {
	for _, workers := range []bool{false, true} {
		t.Run(fmt.Sprintf("workers=%v", workers), func(t *testing.T) {
			srvs := newTestCluster(t, 2, workers)
			s0, s1 := srvs[0], srvs[1]
			const slot = 42
			keys := keysInSlot(t, slot, 40)
			cs0 := &connState{id: 1}

			put := func(s *server, k, v string) any {
				if !workers {
					return callCS(t, s, cs0, "SET", k, v)
				}
				r, w, c := pipeClient(t, s)
				defer c.Close()
				w.WriteCommand([]byte("SET"), []byte(k), []byte(v))
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				v2, err := r.ReadReply()
				if err != nil {
					t.Fatal(err)
				}
				return v2
			}
			for i, k := range keys {
				if got := put(s0, k, fmt.Sprintf("payload-%d", i)); got != "OK" {
					t.Fatalf("SET %s = %v", k, got)
				}
			}

			rep := callCS(t, s0, cs0, "CLUSTER", "MIGRATE", "42", "1")
			sum, ok := rep.(string)
			if !ok || !strings.HasPrefix(sum, "OK slot=42 dest=1 keys=40") {
				t.Fatalf("CLUSTER MIGRATE = %v", rep)
			}

			// Both nodes agree on the new owner.
			if got := s0.clus.node.Map().Owner(slot); got != 1 {
				t.Fatalf("source owner after migrate = %d", got)
			}
			if got := s1.clus.node.Map().Owner(slot); got != 1 {
				t.Fatalf("dest owner after migrate = %d", got)
			}
			// Source redirects, destination serves the records unchanged.
			for i, k := range keys {
				got := callCS(t, s0, &connState{id: 2}, "GET", k)
				if err, ok := got.(error); !ok || !strings.HasPrefix(err.Error(), fmt.Sprintf("MOVED %d node-1", slot)) {
					t.Fatalf("source GET %s = %v, want MOVED", k, got)
				}
				got = callCS(t, s1, &connState{id: 3}, "GET", k)
				want := fmt.Sprintf("payload-%d", i)
				if b, ok := got.([]byte); !ok || string(b) != want {
					t.Fatalf("dest GET %s = %v, want %q", k, got, want)
				}
			}
			// Import metrics observed the stream, and with rewarm on the
			// destination STLT was warmed for the migrated records.
			m := &s1.clus.node.Metrics
			if m.ImpRecords.Load() != 40 || m.ImpBatches.Load() == 0 {
				t.Fatalf("import metrics: records=%d batches=%d", m.ImpRecords.Load(), m.ImpBatches.Load())
			}
			if m.ImpRewarmed.Load() == 0 {
				t.Fatal("no STLT rows rewarmed despite rewarm=true")
			}
			// A migration begins no trace span: tracing was never on.
			for i, s := range srvs {
				if got := tsv(t, string(call(t, s, "INFO").([]byte)), "trace_ops"); got != "0" {
					t.Fatalf("node %d trace_ops:%s after a migration with tracing off, want 0", i, got)
				}
			}
		})
	}
}

// redirClient is a cluster client over in-process connections, one
// per node: it sends each command to the node it believes owns the
// slot and follows the redirects the way a Redis cluster client does.
type redirClient struct {
	conns                []redirConn // by node index
	home                 int         // the node MOVED last named
	moved, ask, tryagain int
}

type redirConn struct {
	r *resp.Reader
	w *resp.Writer
}

func newRedirClient(t *testing.T, srvs []*server) *redirClient {
	c := &redirClient{}
	for _, s := range srvs {
		r, w, _ := pipeClient(t, s)
		c.conns = append(c.conns, redirConn{r, w})
	}
	return c
}

// send writes cmds to node in one flush and reads one reply each.
func (c *redirClient) send(node int, cmds ...[]string) ([]any, error) {
	cn := c.conns[node]
	for _, args := range cmds {
		b := make([][]byte, len(args))
		for i, a := range args {
			b[i] = []byte(a)
		}
		if err := cn.w.WriteCommand(b...); err != nil {
			return nil, err
		}
	}
	if err := cn.w.Flush(); err != nil {
		return nil, err
	}
	replies := make([]any, len(cmds))
	for i := range replies {
		v, err := cn.r.ReadReply()
		if err != nil {
			return nil, err
		}
		replies[i] = v
	}
	return replies, nil
}

// do runs args until a node serves it. MOVED re-homes the client,
// ASK sends ASKING and retries once at the importer, TRYAGAIN retries;
// any other error reply, and a redirect answered to an ASKING retry,
// is an error.
func (c *redirClient) do(args ...string) (any, error) {
	nodeOf := func(addr string) int {
		i, _ := strconv.Atoi(strings.TrimPrefix(addr, "node-"))
		return i
	}
	for hop := 0; hop < 1000; hop++ {
		rep, err := c.send(c.home, args)
		if err != nil {
			return nil, err
		}
		e, isErr := rep[0].(error)
		if !isErr {
			return rep[0], nil
		}
		f := strings.Fields(e.Error())
		switch f[0] {
		case "MOVED":
			c.moved++
			c.home = nodeOf(f[2])
		case "ASK":
			c.ask++
			rep, err := c.send(nodeOf(f[2]), []string{"ASKING"}, args)
			if err != nil {
				return nil, err
			}
			if rep[0] != "OK" {
				return nil, fmt.Errorf("ASKING = %v", rep[0])
			}
			e, isErr := rep[1].(error)
			if !isErr {
				return rep[1], nil
			}
			if !strings.HasPrefix(e.Error(), "TRYAGAIN") {
				return nil, fmt.Errorf("%v after ASKING at %s: %v", args, f[2], e)
			}
			c.tryagain++
		case "TRYAGAIN":
			c.tryagain++
			time.Sleep(100 * time.Microsecond)
		default:
			return nil, fmt.Errorf("%v: %v", args, e)
		}
	}
	return nil, fmt.Errorf("%v: redirects did not settle", args)
}

// linkCount is what a proxyLink carried each way. A chunk is counted
// before it is passed on, so once a call through the link has returned,
// both counts hold its request and its reply.
type linkCount struct{ out, in atomic.Int64 }

// proxyLink forwards connections to addr, counting into n every byte it
// carries and holding every chunk of reply for delay. It stops when the
// test ends.
func proxyLink(t *testing.T, addr string, delay time.Duration, n *linkCount) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", addr)
			if err != nil {
				down.Close()
				continue
			}
			go pump(up, down, 0, &n.out)
			go pump(down, up, delay, &n.in)
		}
	}()
	return ln.Addr().String()
}

// pump copies src to dst chunk by chunk, counting each chunk into n and
// then holding it for delay, and closes dst when src ends.
func pump(dst, src net.Conn, delay time.Duration, n *atomic.Int64) {
	defer dst.Close()
	buf := make([]byte, 64<<10)
	for {
		k, err := src.Read(buf)
		n.Add(int64(k))
		time.Sleep(delay)
		if _, werr := dst.Write(buf[:k]); err != nil || werr != nil {
			return
		}
	}
}

// TestClusterMigrateUnderTrafficOverRESP is the migration audit on the
// command path: writers run SET-then-GET on a populated slot through the
// classify-time gate, the op gate, ASKING, TRYAGAIN and the workers
// while CLUSTER MIGRATE moves the slot, and see no error reply but the
// redirects they follow. Afterwards every key's last acknowledged value
// is on node 1 byte for byte and gone from node 0, which answers MOVED
// for it: no acknowledged write was lost, left stale or duplicated.
func TestClusterMigrateUnderTrafficOverRESP(t *testing.T) {
	const slot, nkeys, writers = 42, 64, 2
	// One key per batch, over a bus link that holds every reply for a
	// millisecond. ExtractBatch keeps the slot's shard lock across a
	// batch's round trip; a writer's op that waited on it that long is
	// handed the lock at the next unlock, so writers run between batches
	// all through the migration and meet the moved keys (ASK).
	srvs := newTestClusterOpts(t, 2, true, func(cfg *config) { cfg.migBatch = 1 })
	srvs[0].clus.peers[1] = cluster.NewPeer(proxyLink(t, srvs[1].cfg.nodes[1].Bus, time.Millisecond, new(linkCount)))
	keys := keysInSlot(t, slot, nkeys)
	acked := make([]string, nkeys) // written by key i's writer only, read after wg.Wait
	seed := newRedirClient(t, srvs)
	for i, k := range keys {
		acked[i] = fmt.Sprintf("seed-%d", i)
		if v, err := seed.do("SET", k, acked[i]); err != nil || v != "OK" {
			t.Fatalf("seed SET %s = %v, %v", k, v, err)
		}
	}

	// Writer w owns keys w, w+writers, ...: the last value it saw
	// acknowledged is the one the audit expects.
	var (
		wg     sync.WaitGroup
		stop   atomic.Bool
		rounds [writers]atomic.Int64
		errs   = make(chan error, writers)
		cls    = make([]*redirClient, writers)
	)
	halt := func() {
		stop.Store(true)
		wg.Wait()
	}
	defer halt()
	for w := range cls {
		cls[w] = newRedirClient(t, srvs)
		wg.Add(1)
		go func(w int, c *redirClient) {
			defer wg.Done()
			for round := 0; !stop.Load(); round++ {
				for i := w; i < nkeys; i += writers {
					val := fmt.Sprintf("w%d-r%d-%d", w, round, i)
					if v, err := c.do("SET", keys[i], val); err != nil || v != "OK" {
						errs <- fmt.Errorf("SET %s = %v, %v", keys[i], v, err)
						return
					}
					acked[i] = val
					v, err := c.do("GET", keys[i])
					if b, ok := v.([]byte); err != nil || !ok || string(b) != val {
						errs <- fmt.Errorf("GET %s = %v, %v; want the acknowledged %q", keys[i], v, err, val)
						return
					}
				}
				rounds[w].Add(1)
			}
		}(w, cls[w])
	}
	// waitRounds lets every writer finish n more rounds.
	waitRounds := func(n int64) {
		var want [writers]int64
		for w := range want {
			want[w] = rounds[w].Load() + n
		}
		deadline := time.Now().Add(20 * time.Second)
		for w := range want {
			for rounds[w].Load() < want[w] && len(errs) == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("writer %d stalled at round %d", w, rounds[w].Load())
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	waitRounds(1)
	rep, err := newRedirClient(t, srvs).send(0, []string{"CLUSTER", "MIGRATE", strconv.Itoa(slot), "1"})
	if err != nil {
		t.Fatal(err)
	}
	if sum, ok := rep[0].(string); !ok || !strings.HasPrefix(sum, fmt.Sprintf("OK slot=%d dest=1 keys=%d ", slot, nkeys)) {
		t.Fatalf("CLUSTER MIGRATE = %v", rep[0])
	}
	waitRounds(1) // the writers meet the new owner
	halt()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	moved, ask := 0, 0
	for _, c := range cls {
		moved, ask = moved+c.moved, ask+c.ask
	}
	if moved == 0 || ask == 0 {
		t.Errorf("writers followed %d MOVED and %d ASK: the traffic missed the migration", moved, ask)
	}
	audit := newRedirClient(t, srvs)
	for i, k := range keys {
		if v, ok := srvs[1].sys.Cluster().PeekValue([]byte(k)); !ok || string(v) != acked[i] {
			t.Errorf("node 1 holds %s = %q (present %v), want the acknowledged %q", k, v, ok, acked[i])
		}
		if _, ok := srvs[0].sys.Cluster().PeekValue([]byte(k)); ok {
			t.Errorf("node 0 still holds %s", k)
		}
		rep, err := audit.send(0, []string{"GET", k})
		want := fmt.Sprintf("MOVED %d node-1", slot)
		if e, ok := rep[0].(error); err != nil || !ok || e.Error() != want {
			t.Errorf("node 0 GET %s = %v, %v; want %s", k, rep[0], err, want)
		}
	}
}
