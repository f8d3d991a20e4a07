// Package stripe picks a goroutine's stripe for hot-path state that is
// spread over several cache-line-separated cells: the kernel's counter
// table, the telemetry histograms and journal, and the slab's epoch gate.
// A conventional shared atomic turns every bump into a read-modify-write
// on one cache line; with many cores walking paths concurrently that line
// ping-pongs between cores and becomes a global serialization point (the
// effect §6.5 of the paper measures for locks applies just as much to
// shared counters). Writers pick a cell with a cheap per-goroutine hash
// (Index) and readers sum all cells.
package stripe

import "unsafe"

// Stripes is the number of cells per counter. Power of two so Index can
// mask. Eight covers the core counts the paper evaluates (Figure 8 tops
// out at 12 threads) without bloating every Kernel by much.
const Stripes = 8

// Index returns this goroutine's stripe in [0, Stripes). It hashes the
// address of a stack local: goroutine stacks are distinct allocations, so
// distinct goroutines land on distinct cells with high probability, while
// repeated calls from one frame reuse the same cell (write locality). The
// value is only a load-spreading hint — any index is correct — so the
// occasional collision after a stack growth or between goroutines is
// harmless.
func Index() int {
	var probe byte
	p := uintptr(unsafe.Pointer(&probe))
	// Skip the low bits (frame alignment), then fold two windows so both
	// stack-segment and frame-offset entropy contribute.
	return int(((p >> 6) ^ (p >> 14)) & (Stripes - 1))
}
