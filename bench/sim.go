package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"addrkv"
	"addrkv/internal/ycsb"
)

// simLeg is one mode's system with its own copy of the op stream, so
// both legs see identical inputs.
type simLeg struct {
	mode   addrkv.Mode
	sys    *addrkv.System
	stream *stream
	issued uint64
}

// simSetup builds both legs and warms each with the same warmOps ops. It
// returns how long that took, as measured and at the nominal host speed:
// like a window it is cut into slices of at most sliceDur, each ending
// with a reading of the yardstick.
func simSetup(w workload, seed uint64, host *meter) (legs []*simLeg, raw, scaled float64, err error) {
	lap := func() {
		r, s := host.lap()
		raw, scaled = raw+r, scaled+s
		host.start()
	}
	for _, mode := range []addrkv.Mode{addrkv.ModeBaseline, addrkv.ModeSTLT} {
		host.start()
		sys, err := buildSystem(w, mode)
		if err != nil {
			return nil, 0, 0, err
		}
		lap()
		leg := &simLeg{mode: mode, sys: sys, stream: newStream(w, seed)}
		for i := 0; i < w.warmOps; i++ {
			if i%w.depth == 0 && time.Since(host.began) >= sliceDur {
				lap()
			}
			apply(sys, w, leg.stream.next())
		}
		lap()
		sys.MarkMeasurement()
		legs = append(legs, leg)
	}
	return legs, raw, scaled, nil
}

// simSampleEvery is how often runFor times a single op.
const simSampleEvery = 8

// runFor drives leg in chunks of depth ops until d has passed. With lat
// non-nil it appends one latency sample per simSampleEvery ops: the host
// nanoseconds of that op, generator included, timed on its own. That is
// thousands of samples for the p99 of a slice at a cost of two clock
// reads in simSampleEvery ops, and a single op is too short for a timer
// tick or a preemption to land in more than a few per thousand, so the
// p99 is the engine's slow path and not the host's.
func (l *simLeg) runFor(w workload, d time.Duration, lat *[]int64) {
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < w.depth; i++ {
			if lat == nil || i%simSampleEvery != 0 {
				apply(l.sys, w, l.stream.next())
				continue
			}
			t0 := time.Now()
			apply(l.sys, w, l.stream.next())
			*lat = append(*lat, int64(time.Since(t0)))
		}
		l.issued += uint64(w.depth)
	}
}

// check compares the engine's own counters with what was issued.
func (l *simLeg) check(c *counts) {
	st := l.sys.Report().Stats
	c.attempted += int64(l.issued)
	if st.Misses > 0 {
		c.failed += int64(st.Misses)
		c.errs = append(c.errs, fmt.Sprintf("%s leg: %d GETs of loaded keys missed", l.mode, st.Misses))
	}
	if st.Ops != l.issued {
		diff := int64(st.Ops) - int64(l.issued)
		if diff < 0 {
			diff = -diff
		}
		c.failed += diff
		c.errs = append(c.errs, fmt.Sprintf("%s leg: engine counted %d ops, %d were issued", l.mode, st.Ops, l.issued))
	}
}

// runSim is the untraced run of sim-zipf, the paper's own experiment:
// one simulated machine, zipf GETs, once without and once with the STLT.
// Throughput is simulated ops per host second over both legs, and a
// latency sample is the host time of one op in simSampleEvery of the
// baseline leg.
func runSim(w workload, seed uint64, seconds float64) (*metricSet, counts, error) {
	ms := newMetricSet(endToEnd)
	var c counts

	var setupS, setupRaw, recoveryRaw []float64
	var legs []*simLeg
	var host meter
	for i := 0; i < setups; i++ {
		legs = nil
		runtime.GC() // the previous set-up's systems are garbage now
		raw, scaled := 0.0, 0.0
		var err error
		if legs, raw, scaled, err = simSetup(w, seed, &host); err != nil {
			return nil, c, err
		}
		setupRaw = append(setupRaw, raw)
		setupS = append(setupS, scaled)
	}
	ms.setNote("setup_s", median(setupS), fmt.Sprintf("median of %d set-ups, spread %.3f", setups, spread(setupS)))

	// Each slice runs both legs, half the slice each, and ends with a
	// reading of the yardstick.
	legDur := sliceDur / time.Duration(len(legs))
	win := newWindow(sliceCount(seconds))
	for sl := range win.lat {
		host.start()
		t0 := time.Now()
		before := legs[0].issued + legs[1].issued
		for _, l := range legs {
			// Latency is sampled on one leg: the two machines' ops differ by
			// a third, and the median of both pooled would sit in the gap
			// between them. It is the baseline leg because the STLT leg's
			// slow ops thin out for millions of ops as the table fills, so
			// its p99 falls all through a 20 s window.
			var lat *[]int64
			if l.mode == addrkv.ModeBaseline {
				lat = &win.lat[sl]
			}
			l.runFor(w, legDur, lat)
		}
		win.dur[sl] = time.Since(t0)
		win.ops[sl] = int64(legs[0].issued + legs[1].issued - before)
		slices.Sort(win.lat[sl])
		win.speed[sl] = host.speed()
	}
	for _, l := range legs {
		l.check(&c)
	}
	windowMetrics(win, ms)
	ms.note["latency_p50_us"] += fmt.Sprintf(" (one op in %d of the baseline leg)", simSampleEvery)

	// sim-zipf has no server child: the process weighed is this one.
	ps, err := sampleProc(os.Getpid())
	if err != nil {
		return nil, c, err
	}
	ms.set("peak_rss_mb", float64(ps.peakRSSKB)/1024)
	// Resident bytes depend on where the collector is in its cycle; after
	// a forced collection and release they are the live stores alone.
	debug.FreeOSMemory()
	if ps, err = sampleProc(os.Getpid()); err != nil {
		return nil, c, err
	}
	runtime.KeepAlive(legs) // the stores are what is being weighed
	userBytes := int64(len(legs)) * int64(w.keys) * (ycsb.KeyLen + preloadVsize)
	ms.setNote("stored_bytes_per_user_byte", float64(ps.rssKB*1024)/float64(userBytes), "no log: resident bytes after a collection / live key+value bytes of both legs")

	// Nothing survives a crash of an in-process store; recovery is
	// building and loading it again.
	var recoveryS []float64
	for i := 0; i < (setups-1)*restarts; i++ {
		runtime.GC() // rebuild into the memory the last rebuild gave back
		host.start()
		t0 := time.Now()
		again, err := buildSystem(w, addrkv.ModeSTLT)
		if err != nil {
			return nil, c, err
		}
		took := time.Since(t0).Seconds()
		recoveryRaw = append(recoveryRaw, took)
		recoveryS = append(recoveryS, took*host.speed())
		if again.Len() != w.keys {
			c.failed++
			c.errs = append(c.errs, fmt.Sprintf("rebuilt store holds %d keys, want %d", again.Len(), w.keys))
		}
	}
	ms.setNote("recovery_s", median(recoveryS),
		fmt.Sprintf("rebuild and reload the STLT store; median of %d, spread %.3f", len(recoveryS), spread(recoveryS)))
	fmt.Printf("# repeats setup_s: %.4f\n", setupS)
	fmt.Printf("# repeats recovery_s: %.4f\n", recoveryS)
	fmt.Printf("# raw setup_s: %.4f\n", setupRaw)
	fmt.Printf("# raw recovery_s: %.4f\n", recoveryRaw)

	m, err := runModeled(w, seed)
	if err != nil {
		return nil, c, err
	}
	ms.set("modeled_cycles_per_op", m.cyclesPerOp())
	ms.set("stlt_speedup", m.speedup())
	return ms, c, nil
}
