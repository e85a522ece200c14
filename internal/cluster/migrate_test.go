package cluster

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"addrkv/internal/kv"
	"addrkv/internal/shard"
	"addrkv/internal/wal"
)

// testNode is a minimal in-process cluster member: a shard cluster, a
// node state, and a bus handler mirroring the serving layer's wiring
// (kvserve composes the same pieces).
type testNode struct {
	idx  int
	c    *shard.Cluster
	n    *Node
	bus  *BusServer
	peer *Peer // dialed by others

	// intercept, when set, sees every bus request first;
	// handled=true short-circuits the normal handler — the
	// failure-injection hook for interruption tests.
	intercept atomic.Pointer[func(m Msg) (t MsgType, body []byte, handled bool)]
}

func (tn *testNode) setIntercept(f func(m Msg) (MsgType, []byte, bool)) {
	if f == nil {
		tn.intercept.Store(nil)
		return
	}
	tn.intercept.Store(&f)
}

func newTestCluster(t *testing.T, nodes int) []*testNode {
	t.Helper()
	infos := make([]NodeInfo, nodes)
	lns := make([]net.Listener, nodes)
	for i := range infos {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		infos[i] = NodeInfo{
			Addr: fmt.Sprintf("127.0.0.1:%d", 7000+i), // advertised only
			Bus:  ln.Addr().String(),
		}
	}
	tns := make([]*testNode, nodes)
	for i := range tns {
		c, err := shard.New(shard.Config{Shards: 2, Engine: kv.Config{Keys: 8000, Mode: kv.ModeSTLT, Seed: 42}})
		if err != nil {
			t.Fatal(err)
		}
		n := NewNode(i, NewSlotMap(infos))
		c.SetOpGate(n.Gate)
		tn := &testNode{idx: i, c: c, n: n}
		tn.bus = ServeBus(lns[i], tn.handle)
		tn.peer = NewPeer(infos[i].Bus)
		t.Cleanup(tn.bus.Close)
		t.Cleanup(tn.peer.Close)
		tns[i] = tn
	}
	return tns
}

func (tn *testNode) handle(m Msg) (MsgType, []byte) {
	if f := tn.intercept.Load(); f != nil {
		if t, body, handled := (*f)(m); handled {
			return t, body
		}
	}
	switch m.Type {
	case MsgHello, MsgMapGet:
		return MsgMap, tn.n.Map().Encode(nil)
	case MsgMapUpdate:
		sm, err := DecodeSlotMap(m.Payload)
		if err != nil {
			return MsgErr, []byte(err.Error())
		}
		tn.n.AdoptMap(sm)
		return MsgAck, EncodeU64(tn.n.Version())
	case MsgMigStart:
		slot, src, err := DecodeSlotNode(m.Payload)
		if err != nil {
			return MsgErr, []byte(err.Error())
		}
		if err := tn.n.BeginImport(slot, src); err != nil {
			return MsgErr, []byte(err.Error())
		}
		return MsgAck, nil
	case MsgMigBatch:
		slot, src, rewarm, frames, err := DecodeMigBatch(m.Payload)
		if err != nil {
			return MsgErr, []byte(err.Error())
		}
		if from, ok := tn.n.ImportingFrom(slot); !ok || from != src {
			return MsgErr, []byte(fmt.Sprintf("slot %d not importing from node %d", slot, src))
		}
		res := wal.Scan(frames)
		if res.Torn {
			return MsgErr, []byte("torn batch")
		}
		installed, _ := tn.c.InstallRecords(res.Records, rewarm)
		tn.n.Metrics.ImpBatches.Add(1)
		tn.n.Metrics.ImpRecords.Add(uint64(installed))
		return MsgAck, EncodeU64(uint64(installed))
	case MsgMigCommit:
		slot, sm, err := DecodeMigCommit(m.Payload)
		if err != nil {
			return MsgErr, []byte(err.Error())
		}
		tn.n.CommitImport(slot, sm)
		return MsgAck, EncodeU64(tn.n.Version())
	}
	return MsgErr, []byte("unhandled")
}

func peersOf(tns []*testNode, self int) func(int) *Peer {
	return func(i int) *Peer {
		if i < 0 || i >= len(tns) || i == self {
			return nil
		}
		return tns[i].peer
	}
}

// importing reports whether slot is arriving at n.
func importing(n *Node, slot uint16) bool {
	_, ok := n.ImportingFrom(slot)
	return ok
}

// keysInSlotOwnedBy fabricates distinct keys landing in slots owned
// by node `own` under map m, at least count of them.
func keysOwnedBy(m *SlotMap, own, count int) [][]byte {
	var keys [][]byte
	for i := 0; len(keys) < count; i++ {
		k := []byte(fmt.Sprintf("mig:%d", i))
		if m.Owner(SlotOf(k)) == own {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestMigrateMovesSlotByteIdentical(t *testing.T) {
	tns := newTestCluster(t, 2)
	src, dst := tns[0], tns[1]

	// Populate node 0 with keys, remember those in one chosen slot.
	keys := keysOwnedBy(src.n.Map(), 0, 500)
	vals := map[string][]byte{}
	for i, k := range keys {
		v := []byte(fmt.Sprintf("value-%d-%s", i, k))
		src.c.Set(k, v)
		vals[string(k)] = v
	}
	slot := SlotOf(keys[0])
	var slotKeys [][]byte
	for _, k := range keys {
		if SlotOf(k) == slot {
			slotKeys = append(slotKeys, k)
		}
	}

	res, err := src.n.Migrate(src.c, peersOf(tns, 0), slot, 1, MigrateOpts{Rewarm: true, BatchKeys: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Keys != len(slotKeys) {
		t.Fatalf("moved %d keys, want %d", res.Keys, len(slotKeys))
	}
	if src.n.Map().Owner(slot) != 1 || dst.n.Map().Owner(slot) != 1 {
		t.Fatalf("ownership not flipped: src=%d dst=%d",
			src.n.Map().Owner(slot), dst.n.Map().Owner(slot))
	}
	if src.n.Map().Version != 2 || dst.n.Map().Version != 2 {
		t.Fatalf("version not bumped: %d/%d", src.n.Map().Version, dst.n.Map().Version)
	}
	for _, k := range slotKeys {
		if _, ok := src.c.PeekValue(k); ok {
			t.Fatalf("key %q still on source", k)
		}
		got, ok := dst.c.PeekValue(k)
		if !ok || !bytes.Equal(got, vals[string(k)]) {
			t.Fatalf("key %q on destination: ok=%v val=%q want %q", k, ok, got, vals[string(k)])
		}
	}
	// Keys of other slots stayed put.
	stay := 0
	for _, k := range keys {
		if SlotOf(k) != slot {
			if _, ok := src.c.PeekValue(k); !ok {
				t.Fatalf("unmigrated key %q vanished", k)
			}
			stay++
		}
	}
	if stay+len(slotKeys) != len(keys) {
		t.Fatal("key accounting broken")
	}
	if got := dst.n.Metrics.ImpRecords.Load(); got != uint64(len(slotKeys)) {
		t.Fatalf("destination installed %d, want %d", got, len(slotKeys))
	}
	if res.Batches == 0 || res.Bytes == 0 || res.Duration <= 0 {
		t.Fatalf("result not filled: %+v", res)
	}
}

// TestMigrateRewarmWarmsDestinationSTLT pins the insertSTLT analog:
// with Rewarm the destination's first GET of a migrated key is a
// fast-path hit; without it, the first GET takes the slow path (the
// warm-up cliff the benchmark measures).
func TestMigrateRewarmWarmsDestinationSTLT(t *testing.T) {
	for _, rewarm := range []bool{true, false} {
		tns := newTestCluster(t, 2)
		src, dst := tns[0], tns[1]
		keys := keysOwnedBy(src.n.Map(), 0, 200)
		for _, k := range keys {
			src.c.Set(k, []byte("v"))
		}
		slot := SlotOf(keys[0])
		if _, err := src.n.Migrate(src.c, peersOf(tns, 0), slot, 1, MigrateOpts{Rewarm: rewarm}); err != nil {
			t.Fatal(err)
		}
		var first *shard.OpOutcome
		for _, k := range keys {
			if SlotOf(k) != slot {
				continue
			}
			var out shard.OpOutcome
			if _, ok := dst.c.GetO(k, &out); !ok {
				t.Fatalf("migrated key %q missing", k)
			}
			first = &out
			break
		}
		if first == nil {
			t.Fatal("no key in slot")
		}
		if first.FastHit != rewarm {
			t.Fatalf("rewarm=%v: first GET fastHit=%v", rewarm, first.FastHit)
		}
	}
}

// TestMigrateUnderTraffic runs a mixed GET/SET stream against the
// moving slot while the migration is in flight, following redirects
// the way a cluster client would, and verifies zero lost, stale, or
// duplicated acknowledged writes.
func TestMigrateUnderTraffic(t *testing.T) {
	tns := newTestCluster(t, 2)
	src, dst := tns[0], tns[1]
	keys := keysOwnedBy(src.n.Map(), 0, 100)
	slot := SlotOf(keys[0])
	// Pack a meaningful population into the moving slot so the stream
	// and the migration genuinely interleave.
	var slotKeys [][]byte
	for i := 0; len(slotKeys) < 32; i++ {
		k := []byte(fmt.Sprintf("hot:%d", i))
		if SlotOf(k) == slot {
			slotKeys = append(slotKeys, k)
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		src.c.Set(k, []byte("v0"))
	}

	// clientOp mimics the serving path: route on the owner's node
	// state, run the gated op, follow ASK/MOVED on denial.
	ackVal := func(k []byte, seq int) []byte { return []byte(fmt.Sprintf("v%d", seq)) }
	nodeOf := func(i int) *testNode { return tns[i] }
	doSet := func(k, v []byte) {
		node := src
		for hop := 0; hop < 8; hop++ {
			var out shard.OpOutcome
			if node.n.Map().Owner(SlotOf(k)) != node.idx && !importing(node.n, SlotOf(k)) {
				node = nodeOf(node.n.Map().Owner(SlotOf(k)))
				continue
			}
			if importing(node.n, SlotOf(k)) && node.n.Map().Owner(SlotOf(k)) != node.idx {
				out.Bypass = true // the ASKING path
			}
			node.c.SetO(k, v, &out)
			if !out.Denied {
				return
			}
			_, kind, _ := node.n.RedirectFor(k)
			switch kind {
			case RedirectAsk:
				node = nodeOf(1) // dest of the only migration
			case RedirectMoved:
				node = nodeOf(node.n.Map().Owner(SlotOf(k)))
			}
		}
		t.Error("SET did not settle within 8 hops")
	}
	doGet := func(k []byte) ([]byte, bool) {
		node := src
		for hop := 0; hop < 8; hop++ {
			var out shard.OpOutcome
			if node.n.Map().Owner(SlotOf(k)) != node.idx && !importing(node.n, SlotOf(k)) {
				node = nodeOf(node.n.Map().Owner(SlotOf(k)))
				continue
			}
			if importing(node.n, SlotOf(k)) && node.n.Map().Owner(SlotOf(k)) != node.idx {
				out.Bypass = true
			}
			v, ok := node.c.GetO(k, &out)
			if !out.Denied {
				return append([]byte(nil), v...), ok
			}
			_, kind, _ := node.n.RedirectFor(k)
			switch kind {
			case RedirectAsk:
				node = nodeOf(1)
			case RedirectMoved:
				node = nodeOf(node.n.Map().Owner(SlotOf(k)))
			}
		}
		t.Error("GET did not settle within 8 hops")
		return nil, false
	}

	stop := make(chan struct{})
	var mu sync.Mutex
	lastAcked := map[string]int{} // key -> last acknowledged seq
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seq := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := slotKeys[seq%len(slotKeys)]
			doSet(k, ackVal(k, seq))
			mu.Lock()
			lastAcked[string(k)] = seq
			mu.Unlock()
			if v, ok := doGet(k); !ok || len(v) == 0 {
				t.Errorf("read-your-write failed for %q", k)
				return
			}
			seq++
		}
	}()

	if _, err := src.n.Migrate(src.c, peersOf(tns, 0), slot, 1, MigrateOpts{Rewarm: true, BatchKeys: 2}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	// Post-migration: every acknowledged write's latest value must be
	// on the destination (and only there).
	mu.Lock()
	defer mu.Unlock()
	for _, k := range slotKeys {
		want := []byte("v0")
		if seq, ok := lastAcked[string(k)]; ok {
			want = ackVal(k, seq)
		}
		if _, ok := src.c.PeekValue(k); ok {
			t.Fatalf("key %q duplicated on source after migration", k)
		}
		got, ok := dst.c.PeekValue(k)
		if !ok {
			t.Fatalf("acknowledged key %q lost", k)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("stale value for %q: got %q want %q", k, got, want)
		}
	}
}

// TestMigrateInterruptedKeepsMarkAndResumes pins the failure
// discipline around shipped batches: once any batch has left the
// node, neither the original failure nor a failed RESUME may clear
// the migrating mark (records live only at the destination, which
// serves them through the ASK window); a later successful resume
// completes the move with nothing lost.
func TestMigrateInterruptedKeepsMarkAndResumes(t *testing.T) {
	tns := newTestCluster(t, 2)
	src, dst := tns[0], tns[1]
	keys := keysOwnedBy(src.n.Map(), 0, 300)
	vals := map[string][]byte{}
	for i, k := range keys {
		v := []byte(fmt.Sprintf("v%d", i))
		src.c.Set(k, v)
		vals[string(k)] = v
	}
	slot := SlotOf(keys[0])
	var slotKeys [][]byte
	for _, k := range keys {
		if SlotOf(k) == slot {
			slotKeys = append(slotKeys, k)
		}
	}
	// Pack the moving slot so the stream has several one-key batches
	// to interrupt between.
	for i := 0; len(slotKeys) < 8; i++ {
		k := []byte(fmt.Sprintf("pad:%d", i))
		if SlotOf(k) == slot {
			v := []byte(fmt.Sprintf("pv%d", i))
			src.c.Set(k, v)
			vals[string(k)] = v
			slotKeys = append(slotKeys, k)
		}
	}

	// Fail the second batch: one batch ships, then the bus "breaks".
	var batches atomic.Int32
	dst.setIntercept(func(m Msg) (MsgType, []byte, bool) {
		if m.Type == MsgMigBatch && batches.Add(1) == 2 {
			return MsgErr, []byte("injected: bus broke"), true
		}
		return 0, nil, false
	})
	if _, err := src.n.Migrate(src.c, peersOf(tns, 0), slot, 1, MigrateOpts{BatchKeys: 1}); err == nil {
		t.Fatal("interrupted migration reported success")
	}
	if len(src.n.MigratingSlots()) != 1 {
		t.Fatal("migrating mark cleared after a batch shipped")
	}

	// Resume against a dead MigStart: the mark must STILL survive —
	// clearing it would make the source serve the slot as sole owner
	// while shipped records live only at the destination.
	dst.setIntercept(func(m Msg) (MsgType, []byte, bool) {
		if m.Type == MsgMigStart {
			return MsgErr, []byte("injected: start refused"), true
		}
		return 0, nil, false
	})
	if _, err := src.n.Migrate(src.c, peersOf(tns, 0), slot, 1, MigrateOpts{BatchKeys: 1}); err == nil {
		t.Fatal("resume with refused MigStart reported success")
	}
	if len(src.n.MigratingSlots()) != 1 {
		t.Fatal("migrating mark cleared by a failed resume")
	}
	if src.n.Map().Owner(slot) != 0 {
		t.Fatal("ownership moved without a commit")
	}

	// Clean resume: completes, every record byte-identical at dest.
	dst.setIntercept(nil)
	if _, err := src.n.Migrate(src.c, peersOf(tns, 0), slot, 1, MigrateOpts{BatchKeys: 1}); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(src.n.MigratingSlots()) != 0 || src.n.Map().Owner(slot) != 1 {
		t.Fatal("resume did not complete")
	}
	for _, k := range slotKeys {
		if _, ok := src.c.PeekValue(k); ok {
			t.Fatalf("key %q still on source", k)
		}
		got, ok := dst.c.PeekValue(k)
		if !ok || !bytes.Equal(got, vals[string(k)]) {
			t.Fatalf("key %q at destination: ok=%v got=%q want %q", k, ok, got, vals[string(k)])
		}
	}
}

// TestMigrateLostCommitAckResumes pins the lost-ack recovery: the
// destination applies the commit but its ack never reaches the
// source. The re-issued migration finds the destination refusing
// MigStart ("already owned here"), probes its map, adopts the newer
// epoch and completes — instead of failing forever or, worse,
// clearing the mark.
func TestMigrateLostCommitAckResumes(t *testing.T) {
	tns := newTestCluster(t, 2)
	src, dst := tns[0], tns[1]
	keys := keysOwnedBy(src.n.Map(), 0, 200)
	for _, k := range keys {
		src.c.Set(k, []byte("v"))
	}
	slot := SlotOf(keys[0])

	// Apply the commit at the destination, then eat the ack.
	dst.setIntercept(func(m Msg) (MsgType, []byte, bool) {
		if m.Type == MsgMigCommit {
			s, sm, err := DecodeMigCommit(m.Payload)
			if err != nil {
				return MsgErr, []byte(err.Error()), true
			}
			dst.n.CommitImport(s, sm)
			return MsgErr, []byte("injected: ack lost"), true
		}
		return 0, nil, false
	})
	if _, err := src.n.Migrate(src.c, peersOf(tns, 0), slot, 1, MigrateOpts{}); err == nil {
		t.Fatal("migration with a lost commit ack reported success")
	}
	if len(src.n.MigratingSlots()) != 1 || src.n.Map().Version != 1 {
		t.Fatal("source state wrong after lost ack")
	}
	if dst.n.Map().Owner(slot) != 1 || dst.n.Map().Version != 2 {
		t.Fatal("destination did not commit")
	}

	dst.setIntercept(nil)
	res, err := src.n.Migrate(src.c, peersOf(tns, 0), slot, 1, MigrateOpts{})
	if err != nil {
		t.Fatalf("resume after lost ack: %v", err)
	}
	if res.Keys != 0 {
		t.Fatalf("resume re-shipped %d keys", res.Keys)
	}
	if src.n.Map().Version != 2 || src.n.Map().Owner(slot) != 1 {
		t.Fatal("source did not adopt the committed map")
	}
	if len(src.n.MigratingSlots()) != 0 {
		t.Fatal("migrating mark survived the adopted commit")
	}
	if got := src.n.Metrics.MigCompleted.Load(); got != 1 {
		t.Fatalf("MigCompleted=%d, want 1", got)
	}
}

// TestMigrateStaleBatchRefused pins the destination-side install
// gate: a MigBatch for a slot that is not importing (or importing
// from a different source) must be refused, so a duplicate batch
// surfacing after the commit cannot clobber newer acknowledged
// writes.
func TestMigrateStaleBatchRefused(t *testing.T) {
	tns := newTestCluster(t, 3)
	src, dst := tns[0], tns[1]
	keys := keysOwnedBy(src.n.Map(), 0, 100)
	for _, k := range keys {
		src.c.Set(k, []byte("v"))
	}
	slot := SlotOf(keys[0])
	frames := wal.AppendFrame(nil, wal.RecLoad, keys[0], []byte("stale"))

	// Not importing at all: refused.
	if _, err := dst.peer.Call(MsgMigBatch, EncodeMigBatch(slot, 0, false, frames)); err == nil {
		t.Fatal("batch for a non-importing slot installed")
	}
	// Importing, but from another source: refused.
	if _, err := dst.peer.Call(MsgMigStart, EncodeSlotNode(slot, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.peer.Call(MsgMigBatch, EncodeMigBatch(slot, 2, false, frames)); err == nil {
		t.Fatal("batch from the wrong source installed")
	}
	// Matching source: installed.
	reply, err := dst.peer.Call(MsgMigBatch, EncodeMigBatch(slot, 0, false, frames))
	if err != nil {
		t.Fatalf("legitimate batch refused: %v", err)
	}
	if DecodeU64(reply.Payload) != 1 {
		t.Fatalf("installed %d records, want 1", DecodeU64(reply.Payload))
	}
	// After the commit clears the importing mark, a late duplicate of
	// the same batch is refused — acknowledged post-commit writes
	// cannot be clobbered.
	next := dst.n.Map().Clone()
	next.Version++
	next.SetOwner(slot, 1)
	dst.n.CommitImport(slot, next)
	if _, err := dst.peer.Call(MsgMigBatch, EncodeMigBatch(slot, 0, false, frames)); err == nil {
		t.Fatal("post-commit duplicate batch installed")
	}
}

func TestMigrateRefusals(t *testing.T) {
	tns := newTestCluster(t, 3)
	src := tns[0]
	// Slot not owned here.
	foreign := uint16(0)
	for s := uint16(0); ; s++ {
		if src.n.Map().Owner(s) != 0 {
			foreign = s
			break
		}
	}
	if _, err := src.n.Migrate(src.c, peersOf(tns, 0), foreign, 1, MigrateOpts{}); err == nil {
		t.Fatal("migrated unowned slot")
	}
	// Destination == self.
	if _, err := src.n.Migrate(src.c, peersOf(tns, 0), 0, 0, MigrateOpts{}); err == nil {
		t.Fatal("migrated slot to itself")
	}
	// Unknown destination.
	if _, err := src.n.Migrate(src.c, peersOf(tns, 0), 0, 9, MigrateOpts{}); err == nil {
		t.Fatal("migrated to unknown node")
	}
	// Destination refuses an import of a slot it owns.
	owned1 := uint16(0)
	for s := uint16(0); ; s++ {
		if src.n.Map().Owner(s) == 1 {
			owned1 = s
			break
		}
	}
	if err := tns[1].n.BeginImport(owned1, 0); err == nil {
		t.Fatal("imported an owned slot")
	}
}
