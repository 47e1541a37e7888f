package dramcache

import "accord/internal/memtypes"

// This file implements Interface.FunctionalBatch for every bundled
// organization. Each implementation is the same trivial loop over the
// backend's own functional ops — but on a concrete receiver, so the calls
// devirtualize and the per-event costs of the generic path (two interface
// dispatches, an Event struct round-trip, a window bounds check) are paid
// once per batch instead of once per event. The sampling spine
// (sim.advanceFunctional via cpu.StepFunctionalBatch) hands whole
// trace-cache windows here; dctest proves batch-vs-single-step
// snapshot-byte equivalence for all registered backends.

// FunctionalWrite is the flags bit selecting WritebackFunctional; it
// matches workloads.FlagWrite so trace-cache flag bytes pass through
// without re-encoding.
const FunctionalWrite uint8 = 1 << 0

// FunctionalBatch implements Interface for the set-associative cache.
//
// At gigascale geometries the tag store is far larger than the host's
// caches, so nearly every findWay is a host-memory miss, and the per-event
// loop serializes them: each lookup's branch decides the next event's
// work. A first pass therefore loads every event's set — independent
// loads the out-of-order core overlaps — and only then runs the per-event
// loop over warm host cache lines. The pass reads state and writes only
// prefetchSink, so the cache state left behind is unchanged.
func (c *Cache) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	meta, ways, mask := c.meta, uint64(c.ways), c.setMask
	var sink uint64
	for _, line := range lines {
		sink += meta[(uint64(line)&mask)*ways].tag
	}
	c.prefetchSink = sink
	for i, line := range lines {
		if flags[i]&FunctionalWrite != 0 {
			c.WritebackFunctional(line)
		} else {
			c.AccessReadFunctional(line)
		}
	}
}

// FunctionalBatch implements Interface for the column-associative cache.
func (c *CACache) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	for i, line := range lines {
		if flags[i]&FunctionalWrite != 0 {
			c.WritebackFunctional(line)
		} else {
			c.AccessReadFunctional(line)
		}
	}
}

// FunctionalBatch implements Interface for Banshee.
func (c *Banshee) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	for i, line := range lines {
		if flags[i]&FunctionalWrite != 0 {
			c.WritebackFunctional(line)
		} else {
			c.AccessReadFunctional(line)
		}
	}
}

// FunctionalBatch implements Interface for Gemini.
func (c *Gemini) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	for i, line := range lines {
		if flags[i]&FunctionalWrite != 0 {
			c.WritebackFunctional(line)
		} else {
			c.AccessReadFunctional(line)
		}
	}
}

// FunctionalBatch implements Interface for TDRAM.
func (c *TDRAM) FunctionalBatch(lines []memtypes.LineAddr, flags []uint8) {
	for i, line := range lines {
		if flags[i]&FunctionalWrite != 0 {
			c.WritebackFunctional(line)
		} else {
			c.AccessReadFunctional(line)
		}
	}
}
