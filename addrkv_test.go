package addrkv

import (
	"bytes"
	"testing"
)

func TestPublicAPIQuickPath(t *testing.T) {
	sys, err := New(Options{Keys: 5000, Index: IndexChainHash, Mode: ModeSTLT})
	if err != nil {
		t.Fatal(err)
	}
	sys.Load(5000, 64)

	k := KeyName(17)
	v, ok := sys.Get(k)
	if !ok || len(v) != 64 {
		t.Fatalf("Get = %v,%v", len(v), ok)
	}
	sys.Set(k, []byte("fresh"))
	v, ok = sys.Get(k)
	if !ok || !bytes.Equal(v, []byte("fresh")) {
		t.Fatal("Set not visible")
	}
	if !sys.Delete(k) {
		t.Fatal("Delete failed")
	}
	if _, ok := sys.Get(k); ok {
		t.Fatal("deleted key visible")
	}
}

func TestRunWorkloadReport(t *testing.T) {
	sys, err := New(Options{Keys: 8000, Index: IndexDenseHash, Mode: ModeSTLT})
	if err != nil {
		t.Fatal(err)
	}
	sys.Load(8000, 64)
	rep := sys.RunWorkload(Workload{
		Distribution: DistZipf, ValueSize: 64,
		WarmOps: 16000, MeasureOps: 4000,
	})
	if rep.Ops != 4000 {
		t.Fatalf("Ops = %d", rep.Ops)
	}
	if rep.CyclesPerOp <= 0 {
		t.Fatal("no cycles")
	}
	if rep.FastPathHitRate <= 0.5 {
		t.Fatalf("fast-path hit rate %.2f too low after warm-up", rep.FastPathHitRate)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("zero Keys accepted")
	}
}

func TestHardwareCostExport(t *testing.T) {
	rows, total := HardwareCost()
	if total != 6694 {
		t.Fatalf("total = %d", total)
	}
	if len(rows) != 4 {
		t.Fatalf("components = %d", len(rows))
	}
}

func TestBaselineVsSTLTOrdering(t *testing.T) {
	runMode := func(mode Mode) float64 {
		sys, err := New(Options{Keys: 30000, Index: IndexBTree, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		sys.Load(30000, 64)
		rep := sys.RunWorkload(Workload{
			Distribution: DistZipf, WarmOps: 60000, MeasureOps: 8000,
		})
		return rep.CyclesPerOp
	}
	base := runMode(ModeBaseline)
	stlt := runMode(ModeSTLT)
	if stlt >= base {
		t.Fatalf("STLT (%.0f) not faster than baseline (%.0f) on btree", stlt, base)
	}
}
