package arch

// CacheWays and TLBWays are the associativity of every simulated cache
// and TLB level (Table III). They are constants of the model, not
// parameters: no experiment varies them, and internal/setassoc's scans
// are written for exactly these widths.
const (
	CacheWays = 8
	TLBWays   = 4
)

// MachineParams collects the timing and geometry parameters of the
// simulated machine. The zero value is not useful; start from
// DefaultMachineParams (Table III of the paper) and override fields.
type MachineParams struct {
	// L1TLB/L2TLB geometry (TLBWays-way) and latency.
	L1TLBEntries int
	L1TLBLatency Cycles
	L2TLBEntries int
	L2TLBLatency Cycles

	// Cache geometry (CacheWays-way) and latency. Sizes in bytes.
	L1Size    int
	L1Latency Cycles
	L2Size    int
	L2Latency Cycles
	L3Size    int
	L3Latency Cycles

	// DRAMLatency is the unloaded main-memory access latency
	// (Table III: 45 ns ≈ 120 cycles at 2.66 GHz).
	DRAMLatency Cycles
	// DRAMQueue models bandwidth contention: each outstanding DRAM
	// access in the recent window adds DRAMQueuePenalty cycles, up to
	// DRAMQueueMax. This is what lets over-eager prefetchers *hurt*
	// (Section IV-F of the paper).
	DRAMQueuePenalty Cycles
	DRAMQueueWindow  int
	DRAMQueueMax     Cycles

	// STB / IPB geometry (Section III-D, Table I).
	STBEntries int
	IPBEntries int

	// New-instruction base latencies (Table III).
	LoadVALatency     Cycles // 6 cycles + STLT set load + 4-bit store
	InsertSTLTLatency Cycles // 4 cycles + SPTW + 16-byte store
}

// DefaultMachineParams returns the simulated architecture of Table III
// (64-bit x86, Gainestown-like, 1 core @ 2.66 GHz).
func DefaultMachineParams() MachineParams {
	return MachineParams{
		L1TLBEntries: 64,
		L1TLBLatency: 1,
		L2TLBEntries: 1536,
		L2TLBLatency: 7,

		// "L1 data cache: 8-way, 64 entries" is read as 64 sets
		// (8 * 64 * 64 B = 32 KB, the Gainestown L1D).
		L1Size:    32 << 10,
		L1Latency: 4,
		L2Size:    256 << 10,
		L2Latency: 12,
		L3Size:    2 << 20,
		L3Latency: 40,

		DRAMLatency:      120,
		DRAMQueuePenalty: 6,
		DRAMQueueWindow:  64,
		DRAMQueueMax:     168, // +140% over base, the worst case in §IV-F

		STBEntries: 32,
		IPBEntries: 32,

		LoadVALatency:     6,
		InsertSTLTLatency: 4,
	}
}
