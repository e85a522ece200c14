package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"addrkv/internal/ycsb"
)

// setups is how many times a run sets the workload up from nothing;
// setup_s is the median.
const setups = 3

// restarts is how many times each discarded set-up is crashed and
// restarted; recovery_s is the median over all of them.
const restarts = 4

// readbackSample is how many preloaded keys are read back after the
// restart of a server that keeps no log.
const readbackSample = 2000

// env is what every run shares: where to build and where to write.
type env struct {
	work   string // private directory for sockets, logs and server stderr
	bin    string // kvserve built from the working tree
	buildS float64
	outDir string // where trace-<workload>.json goes
}

// counts is the run's failure accounting for the result line.
type counts struct {
	attempted, failed int64
	errs              []string
}

func (c *counts) add(lg *loadgen) {
	a, f, errs := lg.totals()
	c.attempted += a
	c.failed += f
	c.errs = append(c.errs, errs...)
}

// servedSetup launches a server in a fresh directory, waits for it, and
// warms it up through the load generator. The caller owns both.
type servedSetup struct {
	dir  string
	srv  *server
	lg   *loadgen
	boot time.Duration
	// raw and scaled are the seconds from launch to the end of warm-up, as
	// measured and at the nominal host speed, yardstick readings excluded.
	raw, scaled float64
}

func (s *servedSetup) discard(c *counts) {
	if s == nil {
		return
	}
	if s.lg != nil {
		c.add(s.lg)
		s.lg.close()
	}
	if s.srv != nil {
		s.srv.kill()
	}
	// The directory stays until the run's private directory goes at exit:
	// the filesystem may be mounted with discard, and deleting a log now
	// would send TRIMs to the disk the next server is about to fsync to.
}

// crashRestart sends the server SIGKILL and starts it again on the same
// directory. It returns the time from the restart to the first PONG.
func (s *servedSetup) crashRestart(e env, w workload) (time.Duration, error) {
	s.srv.kill()
	var err error
	if s.srv, err = startServer(e.bin, s.dir, w, false); err != nil {
		return 0, err
	}
	return s.srv.waitReady()
}

func setupServed(e env, w workload, seed uint64, metrics bool, host *meter) (*servedSetup, error) {
	dir, err := os.MkdirTemp(e.work, "srv-")
	if err != nil {
		return nil, err
	}
	s := &servedSetup{dir: dir}
	host.start()
	if s.srv, err = startServer(e.bin, dir, w, metrics); err != nil {
		return s, err
	}
	if s.boot, err = s.srv.waitReady(); err != nil {
		return s, err
	}
	if s.lg, err = dialLoadgen(w, seed, s.srv.sock); err != nil {
		return s, err
	}
	s.raw, s.scaled = host.lap()
	raw, scaled, err := s.lg.runCount(w.warmOps, host)
	if err != nil {
		return s, fmt.Errorf("warm-up: %w\n%s", err, s.srv.stderrTail())
	}
	s.raw, s.scaled = s.raw+raw, s.scaled+scaled
	return s, nil
}

// windowMetrics reports the end-to-end timing of a measured window: each
// metric is computed per slice and reduced by quiet; the per-slice values
// are printed too.
func windowMetrics(win window, ms *metricSet) {
	tp := quiet(win.throughput(), true)
	ms.setNote("throughput_ops_s", tp.Quiet, tp.note())
	p50 := quiet(win.latencyUS(0.50), false)
	ms.setNote("latency_p50_us", p50.Quiet, fmt.Sprintf("%s; %d samples", p50.note(), win.samples()))
	p99 := quiet(win.latencyUS(0.99), false)
	ms.setNote("latency_p99_us", p99.Quiet, fmt.Sprintf("%s; p99.9 %.1f us", p99.note(), quiet(win.latencyUS(0.999), false).Quiet))
	fmt.Printf("# slices host_speed: %.4f\n", win.speed)
	fmt.Printf("# slices throughput_ops_s: %.0f\n", win.throughput())
	fmt.Printf("# slices latency_p50_us: %.2f\n", win.latencyUS(0.50))
	fmt.Printf("# slices latency_p99_us: %.2f\n", win.latencyUS(0.99))
}

// runServed is the untraced run of a served workload: set up three
// times, crash and restart the first two and read back what they must
// still hold, measure one window on the last, and replay the modeled leg.
func runServed(e env, w workload, seed uint64, seconds float64) (ms *metricSet, c counts, err error) {
	ms = newMetricSet(endToEnd)

	// One generator thread per connection.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.conns))

	// The first set-ups are thrown away, but not before they are crashed:
	// each holds the preload and one warm-up and nothing else, so what
	// their restarts replay is the same on every commit.
	var setupS, recoveryS, setupRaw, recoveryRaw []float64
	var s *servedSetup
	var host meter
	for i := 0; i < setups; i++ {
		if s, err = setupServed(e, w, seed, false, &host); err != nil {
			s.discard(&c)
			return nil, c, err
		}
		setupRaw = append(setupRaw, s.raw)
		setupS = append(setupS, s.scaled)
		if i == setups-1 {
			break
		}
		for j := 0; j < restarts && err == nil; j++ {
			var took time.Duration
			host.start()
			took, err = s.crashRestart(e, w)
			recoveryRaw = append(recoveryRaw, took.Seconds())
			recoveryS = append(recoveryS, took.Seconds()*host.speed())
		}
		if err == nil {
			err = readBack(s, w, seed, &c)
		}
		s.discard(&c)
		if err != nil {
			return nil, c, fmt.Errorf("restart after SIGKILL: %w", err)
		}
	}
	// The result's counts are named so that this last discard, which adds
	// the measured window's operations, reaches the caller.
	defer func() { s.discard(&c) }()
	ms.setNote("setup_s", median(setupS), fmt.Sprintf("median of %d set-ups, spread %.3f; last boot %.3f s", setups, spread(setupS), s.boot.Seconds()))
	ms.setNote("recovery_s", median(recoveryS),
		fmt.Sprintf("restart to first PONG after SIGKILL, preload + warm-up to replay; median of %d, spread %.3f", len(recoveryS), spread(recoveryS)))
	fmt.Printf("# repeats setup_s: %.4f\n", setupS)
	fmt.Printf("# repeats recovery_s: %.4f\n", recoveryS)
	fmt.Printf("# raw setup_s: %.4f\n", setupRaw)
	fmt.Printf("# raw recovery_s: %.4f\n", recoveryRaw)

	win, err := s.lg.runTimed(sliceCount(seconds))
	if err != nil {
		return nil, c, fmt.Errorf("measured window: %w\n%s", err, s.srv.stderrTail())
	}
	windowMetrics(win, ms)

	ps, err := sampleProc(s.srv.pid())
	if err != nil {
		return nil, c, err
	}
	ms.set("peak_rss_mb", float64(ps.peakRSSKB)/1024)

	userBytes := int64(w.keys) * (ycsb.KeyLen + preloadVsize)
	if w.aof {
		for _, cl := range s.lg.clients {
			userBytes += cl.gen.userBytes()
		}
		stored, err := dirBytes(filepath.Join(s.dir, "aof"))
		if err != nil {
			return nil, c, err
		}
		ms.setNote("stored_bytes_per_user_byte", float64(stored)/float64(userBytes), "log directory bytes / acknowledged key+value bytes")

		// The durability check proper: crash the server that took the
		// whole window and read back every write it acknowledged. How long
		// this replay takes depends on how much the window wrote, so it is
		// printed and not compared.
		took, err := s.crashRestart(e, w)
		if err == nil {
			err = readBack(s, w, seed, &c)
		}
		if err != nil {
			return nil, c, fmt.Errorf("restart after the window: %w\n%s", err, s.srv.stderrTail())
		}
		fmt.Printf("# recovery of the measured server: %.3f s to replay preload + %d acknowledged writes\n", took.Seconds(), win.samples()+int64(w.warmOps))
	} else {
		ms.setNote("stored_bytes_per_user_byte", float64(ps.rssKB*1024)/float64(userBytes), "no log: resident bytes / live key+value bytes")
	}

	m, err := runModeled(w, seed)
	if err != nil {
		return nil, c, err
	}
	ms.set("modeled_cycles_per_op", m.cyclesPerOp())
	ms.set("stlt_speedup", m.speedup())
	return ms, c, nil
}

// readBack verifies the restarted server. With a log, every write the
// old server acknowledged must read back exactly; without one, the
// server is back at its preload and a sample of it is read.
func readBack(s *servedSetup, w workload, seed uint64, c *counts) error {
	old := s.lg
	c.add(old)
	old.close()
	s.lg = nil
	lg, err := dialLoadgen(w, seed, s.srv.sock)
	if err != nil {
		return err
	}
	s.lg = lg
	sample := readbackSample
	if w.aof {
		sample = 0
		for i, cl := range lg.clients {
			cl.gen = old.clients[i].gen
		}
	}
	return lg.readback(sample)
}
