package machine

// Config holds the timing and topology parameters of a simulated machine.
//
// Latencies are in cycles. The defaults approximate a dual-socket Intel
// server in the spirit of the paper's evaluation platform: ~20-cycle
// on-chip message hops (the paper cites 15-30 cycles), a 5x penalty for
// crossing the socket interconnect, and 2.5 cycles per nanosecond (2.5 GHz).
type Config struct {
	// Sockets is the number of NUMA nodes.
	Sockets int
	// CoresPerSocket is the number of hardware threads per socket, each
	// modeled with a private cache.
	CoresPerSocket int

	// HopCycles is the latency of one coherence message between two
	// endpoints on the same socket.
	HopCycles uint64
	// NUMAFactor multiplies HopCycles for cross-socket messages.
	NUMAFactor uint64
	// DirOccupancy is the directory's per-message processing time; it
	// serializes back-to-back handling of requests.
	DirOccupancy uint64
	// CacheOccupancy is a cache controller's per-message processing time.
	CacheOccupancy uint64
	// HitCycles is the latency of a load/store that hits in the private
	// cache with sufficient permissions.
	HitCycles uint64
	// RMWHold is how long a core keeps a line locked (stalling incoming
	// coherence requests) while executing an atomic read-modify-write.
	RMWHold uint64
	// AbortCycles is the cost of restoring the checkpoint after an abort.
	AbortCycles uint64
	// CommitCycles is the cost of clearing transactional marks at commit.
	CommitCycles uint64

	// TrippedWriterFix enables the microarchitectural change of paper §3.4.1:
	// a core blocked in _xend with a single pending GetM stalls an incoming
	// Fwd-GetS until the transaction commits, instead of aborting.
	TrippedWriterFix bool

	// Faults configures the seeded fault injector (see inject.go): random
	// spurious aborts (interrupts and other non-conflict aborts real HTM
	// suffers, §2), a bound on transactional footprints, persistent or
	// mid-run HTM disablement, and cross-socket latency jitter. The zero
	// value injects nothing.
	Faults FaultPlan

	// CyclesPerNS converts simulated cycles to reported nanoseconds.
	CyclesPerNS float64

	// Seed perturbs every proc's deterministic random stream, so that
	// repeated experiments sample different (but each fully reproducible)
	// executions.
	Seed uint64
}

// Default returns the baseline configuration used by the reproduction:
// two sockets of 44 hardware threads, matching the paper's dual
// Xeon E5-2699 v4 (22 cores x 2 hyperthreads per socket).
func Default() Config {
	return Config{
		Sockets:          2,
		CoresPerSocket:   44,
		HopCycles:        20,
		NUMAFactor:       5,
		DirOccupancy:     2,
		CacheOccupancy:   1,
		HitCycles:        2,
		RMWHold:          20,
		AbortCycles:      12,
		CommitCycles:     4,
		TrippedWriterFix: false,
		CyclesPerNS:      2.5,
	}
}

// NumCores returns the total number of simulated hardware threads.
func (c Config) NumCores() int { return c.Sockets * c.CoresPerSocket }

// SocketOf returns the socket that core id belongs to.
func (c Config) SocketOf(core int) int { return core / c.CoresPerSocket }

// NSPerOp converts a cycle count to nanoseconds under this configuration.
func (c Config) NSPerOp(cycles float64) float64 { return cycles / c.CyclesPerNS }
