package main

import (
	"bytes"
	"fmt"

	"addrkv"
	"addrkv/internal/arch"
	"addrkv/internal/kv"
	"addrkv/internal/ycsb"
)

// buildSystem builds and preloads the in-process equivalent of the
// store a workload runs against: what kvserve builds from the flags the
// harness passes it, or the paper's single simulated machine for
// sim-zipf.
func buildSystem(w workload, mode addrkv.Mode) (*addrkv.System, error) {
	shards := 1
	if w.served {
		shards = 2
	}
	sys, err := addrkv.New(addrkv.Options{
		Keys: w.keys, Shards: shards, Index: addrkv.IndexChainHash, Mode: mode, RedisLayer: true,
	})
	if err != nil {
		return nil, err
	}
	sys.Load(w.keys, preloadVsize)
	return sys, nil
}

// stream interleaves the connections' op streams one burst at a time,
// the order a single-threaded replay of the workload sees.
type stream struct {
	depth int
	gens  []*opGen
	turn  int
	left  int
}

func newStream(w workload, seed uint64) *stream {
	s := &stream{depth: w.depth}
	for i := 0; i < w.conns; i++ {
		s.gens = append(s.gens, newOpGen(w, seed, i))
	}
	s.left = s.depth
	return s
}

func (s *stream) next() op {
	if s.left == 0 {
		s.turn = (s.turn + 1) % len(s.gens)
		s.left = s.depth
	}
	s.left--
	return s.gens[s.turn].next()
}

// apply executes o against sys and reports whether the result matched
// the model. sim-zipf goes through Cluster.RunOp, the harness path of
// the paper's experiments, whose GETs return nothing to compare: its
// misses are read from the statistics afterwards.
func apply(sys *addrkv.System, w workload, o op) bool {
	if !w.served {
		t := ycsb.Get
		if o.set {
			t = ycsb.Set
		}
		sys.Cluster().RunOp(ycsb.Op{Type: t, KeyID: o.id}, w.vsize)
		return true
	}
	var kb [ycsb.KeyLen]byte
	key := ycsb.KeyNameInto(kb[:], o.id)
	if o.set {
		sys.Set(key, o.value())
		return true
	}
	v, ok := sys.Get(key)
	if o.absent {
		return !ok
	}
	return ok && bytes.Equal(v, o.value())
}

// modelLeg replays the fixed modelWarm+modelOps prefix of the workload's
// op stream on a fresh system in one mode and returns the statistics of
// the measured part. It is single-threaded, so the result is a function
// of the seed alone.
func modelLeg(w workload, seed uint64, mode addrkv.Mode) (kv.Stats, error) {
	sys, err := buildSystem(w, mode)
	if err != nil {
		return kv.Stats{}, err
	}
	s := newStream(w, seed)
	wrong := 0
	for i := 0; i < w.modelWarm; i++ {
		if !apply(sys, w, s.next()) {
			wrong++
		}
	}
	sys.MarkMeasurement()
	for i := 0; i < w.modelOps; i++ {
		if !apply(sys, w, s.next()) {
			wrong++
		}
	}
	st := sys.Report().Stats
	if wrong > 0 {
		return st, fmt.Errorf("modeled leg (%s): %d replies differ from the model", mode, wrong)
	}
	if st.Ops != uint64(w.modelOps) {
		return st, fmt.Errorf("modeled leg (%s): engine counted %d ops, %d were issued", mode, st.Ops, w.modelOps)
	}
	if !w.served && st.Misses > 0 {
		return st, fmt.Errorf("modeled leg (%s): %d GETs of loaded keys missed", mode, st.Misses)
	}
	return st, nil
}

// modeled is the paper's currency for a workload: cycles per op with
// the STLT, and the ratio to the baseline machine on the same op stream.
type modeled struct {
	stlt, base kv.Stats
}

func runModeled(w workload, seed uint64) (modeled, error) {
	var m modeled
	var err error
	if m.base, err = modelLeg(w, seed, addrkv.ModeBaseline); err != nil {
		return m, err
	}
	m.stlt, err = modelLeg(w, seed, addrkv.ModeSTLT)
	return m, err
}

func (m modeled) cyclesPerOp() float64 { return m.stlt.CyclesPerOp() }

func (m modeled) speedup() float64 { return m.base.CyclesPerOp() / m.stlt.CyclesPerOp() }

// hardware reports the modeled hardware counts of st per op. They are
// exact counts from kv.Stats; a host-time optimisation must leave every
// one of them identical.
func hardware(st kv.Stats, ms *metricSet) {
	ops := float64(st.Ops)
	if ops == 0 {
		return
	}
	ms.set("cpu.cycles_per_op", float64(st.Machine.Cycles)/ops)
	for c := 0; c < arch.NumCostCategories; c++ {
		ms.set("cpu.share."+arch.CostCategory(c).String(), float64(st.Machine.ByCat[c])/float64(st.Machine.Cycles))
	}
	ms.set("cpu.stb_hits_per_op", float64(st.Machine.STBHits)/ops)
	ms.set("tlb.misses_per_op", float64(st.Machine.TLBMisses)/ops)
	ms.set("vm.page_walks_per_op", float64(st.Machine.PageWalks)/ops)
	ms.set("cache.llc_misses_per_op", float64(st.Machine.DRAMDemand)/ops)
	if st.STLT.Lookups > 0 {
		ms.set("core.stlt_hit_rate", float64(st.STLT.Hits)/float64(st.STLT.Lookups))
	}
	ms.set("core.stlt_false_hits_per_op", float64(st.STLT.FalseHits)/ops)
	ms.set("core.stlt_replaced_per_op", float64(st.STLT.Replaced)/ops)
	ms.set("core.ipb_rejects_per_op", float64(st.STLT.IPBRejects)/ops)
}
