// Package config describes the simulated GPU machine (the paper's Table I)
// and the TLP configuration space (the paper's Table II).
//
// Where the source text's OCR dropped digits, canonical GPGPU-Sim v3.x
// values for the cited configuration are used; see DESIGN.md for the full
// substitution list.
package config

import "fmt"

// TLPLevels are the per-application TLP (active warps per scheduler) values
// the schemes may choose from. Eight levels per application yield the
// paper's 64 two-application combinations. The maximum is 24 because a core
// holds 48 warps shared by two warp schedulers.
var TLPLevels = []int{1, 2, 4, 6, 8, 12, 16, 24}

// MaxTLP is the largest selectable TLP level.
const MaxTLP = 24

// LevelIndex returns the index of tlp in TLPLevels, or -1 if tlp is not a
// valid level.
func LevelIndex(tlp int) int {
	for i, v := range TLPLevels {
		if v == tlp {
			return i
		}
	}
	return -1
}

// ClampToLevel returns the largest configured TLP level that is <= tlp
// (at minimum TLPLevels[0]).
func ClampToLevel(tlp int) int {
	best := TLPLevels[0]
	for _, v := range TLPLevels {
		if v <= tlp {
			best = v
		}
	}
	return best
}

// DRAMTiming holds GDDR5 bank timing constraints in memory-clock cycles
// (Hynix GDDR5 datasheet values as configured in GPGPU-Sim).
type DRAMTiming struct {
	TCL  int // CAS latency: column command to data
	TRP  int // row precharge
	TRAS int // row active time (activate to precharge)
	TRCD int // row to column delay (activate to column command)
	TRRD int // activate to activate, different banks
	TCCD int // column command to column command (burst gap)
	TWR  int // write recovery before precharge
	BL   int // burst length in memory cycles on the data bus

	// Refresh: every TREFI memory cycles all banks of a partition are
	// blocked for TRFC cycles. TREFI == 0 disables refresh modeling (the
	// default: the paper's bandwidth accounting does not separate refresh
	// overhead; enable it for the fidelity ablation).
	TREFI int
	TRFC  int
}

// DefaultDRAMTiming returns the Table I Hynix GDDR5 timing set.
func DefaultDRAMTiming() DRAMTiming {
	return DRAMTiming{
		TCL:  12,
		TRP:  12,
		TRAS: 28,
		TRCD: 12,
		TRRD: 6,
		TCCD: 2,
		TWR:  12,
		BL:   4,
	}
}

// CacheGeometry describes one set-associative cache.
type CacheGeometry struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

// Sets returns the number of sets implied by the geometry.
func (g CacheGeometry) Sets() int {
	return g.SizeBytes / (g.Ways * g.LineBytes)
}

// Validate reports an error if the geometry is not a power-of-two
// organization usable by the cache model.
func (g CacheGeometry) Validate() error {
	if g.SizeBytes <= 0 || g.Ways <= 0 || g.LineBytes <= 0 {
		return fmt.Errorf("config: non-positive cache geometry %+v", g)
	}
	if g.SizeBytes%(g.Ways*g.LineBytes) != 0 {
		return fmt.Errorf("config: cache size %d not divisible by way*line %d",
			g.SizeBytes, g.Ways*g.LineBytes)
	}
	sets := g.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("config: cache sets %d not a power of two", sets)
	}
	if g.LineBytes&(g.LineBytes-1) != 0 {
		return fmt.Errorf("config: line size %d not a power of two", g.LineBytes)
	}
	return nil
}

// GPU is the full machine description (the paper's Table I).
type GPU struct {
	// Cores and threading.
	NumCores          int // streaming multiprocessors / compute units
	SIMTWidth         int // threads per warp
	MaxWarpsPerCore   int // hardware warp contexts per core
	SchedulersPerCore int // warp schedulers (issue slots) per core

	// Clocks in MHz. The simulator advances the memory clock at
	// MemClockMHz/CoreClockMHz of the core rate.
	CoreClockMHz int
	IcntClockMHz int
	MemClockMHz  int

	// Caches.
	L1 CacheGeometry // per-core private L1 data cache
	L2 CacheGeometry // per memory partition slice

	// L1 hit latency and L2 hit latency in core cycles.
	L1HitLatency int
	L2HitLatency int

	// MSHRs per L1 cache: outstanding misses per core.
	L1MSHRs int

	// MSHRs per L2 slice: outstanding DRAM reads per memory partition.
	// Zero selects the default of 64 (the seed simulator's fixed budget).
	L2MSHRs int

	// Interconnect: crossbar latency (core cycles) per direction and
	// flit (packet) size in bytes.
	IcntLatency  int
	IcntFlitSize int

	// Memory system.
	NumMemPartitions int // memory controllers, each with an L2 slice
	BanksPerMC       int
	BankGroupsPerMC  int
	BusWidthBytes    int // data bus width per MC per memory cycle
	AddrInterleave   int // global address space interleave chunk in bytes
	Timing           DRAMTiming

	// DRAM row size in bytes (row-buffer locality granularity).
	RowBytes int
}

// Default returns the baseline Table I configuration scaled per DESIGN.md.
func Default() GPU {
	return GPU{
		NumCores:          16,
		SIMTWidth:         32,
		MaxWarpsPerCore:   48,
		SchedulersPerCore: 2,
		CoreClockMHz:      1400,
		IcntClockMHz:      1400,
		MemClockMHz:       924,
		L1: CacheGeometry{
			SizeBytes: 16 * 1024,
			Ways:      4,
			LineBytes: 128,
		},
		L2: CacheGeometry{
			SizeBytes: 256 * 1024,
			Ways:      16,
			LineBytes: 128,
		},
		L1HitLatency:     28,
		L2HitLatency:     40,
		L1MSHRs:          64,
		L2MSHRs:          64,
		IcntLatency:      8,
		IcntFlitSize:     64,
		NumMemPartitions: 8,
		BanksPerMC:       16,
		BankGroupsPerMC:  4,
		BusWidthBytes:    32,
		AddrInterleave:   256,
		Timing:           DefaultDRAMTiming(),
		RowBytes:         2 * 1024,
	}
}

// Validate checks internal consistency of the configuration.
func (g GPU) Validate() error {
	if g.NumCores <= 0 {
		return fmt.Errorf("config: NumCores must be positive, got %d", g.NumCores)
	}
	if g.SchedulersPerCore <= 0 {
		return fmt.Errorf("config: SchedulersPerCore must be positive, got %d", g.SchedulersPerCore)
	}
	if g.MaxWarpsPerCore%g.SchedulersPerCore != 0 {
		return fmt.Errorf("config: MaxWarpsPerCore %d not divisible by schedulers %d",
			g.MaxWarpsPerCore, g.SchedulersPerCore)
	}
	if err := g.L1.Validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := g.L2.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if g.L1.LineBytes != g.L2.LineBytes {
		return fmt.Errorf("config: L1 line %d != L2 line %d", g.L1.LineBytes, g.L2.LineBytes)
	}
	if g.NumMemPartitions <= 0 || g.NumMemPartitions&(g.NumMemPartitions-1) != 0 {
		return fmt.Errorf("config: NumMemPartitions %d must be a positive power of two", g.NumMemPartitions)
	}
	if g.BanksPerMC <= 0 || g.BanksPerMC&(g.BanksPerMC-1) != 0 {
		return fmt.Errorf("config: BanksPerMC %d must be a positive power of two", g.BanksPerMC)
	}
	if g.BankGroupsPerMC <= 0 || g.BanksPerMC%g.BankGroupsPerMC != 0 {
		return fmt.Errorf("config: BanksPerMC %d not divisible by bank groups %d",
			g.BanksPerMC, g.BankGroupsPerMC)
	}
	if g.AddrInterleave < g.L2.LineBytes || g.AddrInterleave%g.L2.LineBytes != 0 {
		return fmt.Errorf("config: interleave %d must be a multiple of the line size %d",
			g.AddrInterleave, g.L2.LineBytes)
	}
	if g.RowBytes <= 0 || g.RowBytes%g.AddrInterleave != 0 {
		return fmt.Errorf("config: RowBytes %d must be a multiple of interleave %d",
			g.RowBytes, g.AddrInterleave)
	}
	if g.MemClockMHz <= 0 || g.CoreClockMHz <= 0 {
		return fmt.Errorf("config: clocks must be positive")
	}
	return nil
}

// MaxTLPPerScheduler is the largest TLP value selectable on this machine:
// hardware warps divided among the schedulers.
func (g GPU) MaxTLPPerScheduler() int {
	return g.MaxWarpsPerCore / g.SchedulersPerCore
}

// PeakBandwidthBytesPerMemCycle is the aggregate DRAM data-bus capacity per
// memory-clock cycle across all partitions. GDDR5 is DDR on the data bus;
// the model folds the double rate into BusWidthBytes per cycle.
func (g GPU) PeakBandwidthBytesPerMemCycle() float64 {
	return float64(g.NumMemPartitions * g.BusWidthBytes)
}

// MemCyclesPerCoreCycle is the memory-clock advance per core-clock cycle.
// It and PartitionOf take a pointer receiver because the engine calls
// them on its hot path, where a value receiver copies the whole GPU.
func (g *GPU) MemCyclesPerCoreCycle() float64 {
	return float64(g.MemClockMHz) / float64(g.CoreClockMHz)
}

// PartitionOf maps a byte address to its memory partition using the Table I
// 256-byte chunk interleave. The partition count is a power of two
// (Validate), so the chunk's partition is its low bits.
func (g *GPU) PartitionOf(addr uint64) int {
	return int((addr / uint64(g.AddrInterleave)) & uint64(g.NumMemPartitions-1))
}

// String summarizes the configuration as a Table-I style block.
func (g GPU) String() string {
	return fmt.Sprintf(
		"GPU{cores=%d simt=%d warps/core=%d scheds/core=%d clocks=%d/%d/%dMHz "+
			"L1=%dKB/%dw L2=%dx%dKB/%dw line=%dB MCs=%d banks=%d groups=%d row=%dB}",
		g.NumCores, g.SIMTWidth, g.MaxWarpsPerCore, g.SchedulersPerCore,
		g.CoreClockMHz, g.IcntClockMHz, g.MemClockMHz,
		g.L1.SizeBytes/1024, g.L1.Ways,
		g.NumMemPartitions, g.L2.SizeBytes/1024, g.L2.Ways, g.L2.LineBytes,
		g.NumMemPartitions, g.BanksPerMC, g.BankGroupsPerMC, g.RowBytes)
}
