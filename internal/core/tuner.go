package core

// Tuner implements the performance-tuning loop sketched in Section
// III-F: "our design allows the key-value store user to monitor STLT
// miss ratio and tune the performance factors, such as space overhead,
// improvement in performance, or worst-case query latency."
//
// Every EvalOps STLT lookups it inspects the window's miss ratio:
//   - above GrowThreshold and below MaxRows, it doubles the table
//     (STLTresize clears it, so misses spike briefly and the next
//     window is skipped);
//   - below ShrinkThreshold and above MinRows, it halves the table to
//     give memory back.
//
// Hysteresis between the two thresholds prevents oscillation.
type Tuner struct {
	os *OS

	// EvalOps is the window length in STLT lookups.
	EvalOps uint64
	// GrowThreshold / ShrinkThreshold are miss-ratio bounds.
	GrowThreshold   float64
	ShrinkThreshold float64
	// MinRows / MaxRows bound the table size.
	MinRows int
	MaxRows int

	lastLookups uint64
	lastMisses  uint64
	skipWindow  bool

	// Grows / Shrinks count resize actions taken.
	Grows   uint64
	Shrinks uint64
}

// NewTuner attaches a tuner with conservative defaults: grow past 10%
// misses, shrink under 0.5%, between 4K rows and 64x the initial size.
func NewTuner(os *OS) *Tuner {
	t := os.STLT()
	if t == nil {
		panic("core: NewTuner requires an allocated STLT")
	}
	return &Tuner{
		os:              os,
		EvalOps:         1 << 14,
		GrowThreshold:   0.10,
		ShrinkThreshold: 0.005,
		MinRows:         4096,
		MaxRows:         t.Rows() * 64,
	}
}

// Tick must be called periodically (e.g. once per operation); it
// evaluates the window and resizes when warranted. It returns true if
// it resized.
func (tu *Tuner) Tick() bool {
	st := tu.os.STLT()
	if st == nil || !st.Enabled {
		return false
	}
	lookups := st.Stats.Lookups
	if lookups < tu.lastLookups {
		// The counters were zeroed (a measurement reset): the window
		// restarts with them, or its differences would wrap around.
		tu.lastLookups, tu.lastMisses = 0, 0
	}
	if lookups-tu.lastLookups < tu.EvalOps {
		return false
	}
	misses := (st.Stats.Lookups - st.Stats.Hits) + st.Stats.FalseHits
	windowLookups := lookups - tu.lastLookups
	windowMisses := misses - tu.lastMisses
	tu.lastLookups = lookups
	tu.lastMisses = misses

	if tu.skipWindow {
		// The window right after a resize is cold; ignore it.
		tu.skipWindow = false
		return false
	}
	ratio := float64(windowMisses) / float64(windowLookups)
	switch {
	case ratio > tu.GrowThreshold && st.Rows()*2 <= tu.MaxRows:
		if err := tu.os.STLTResize(st.Rows() * 2); err != nil {
			return false
		}
		tu.Grows++
		tu.skipWindow = true
		return true
	case ratio < tu.ShrinkThreshold && st.Rows()/2 >= tu.MinRows:
		if err := tu.os.STLTResize(st.Rows() / 2); err != nil {
			return false
		}
		tu.Shrinks++
		tu.skipWindow = true
		return true
	}
	return false
}
