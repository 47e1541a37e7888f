package dramcache

import (
	"math/rand"
	"testing"

	"accord/internal/memtypes"
)

// BenchmarkFunctionalBatch measures the functional fast-forward path of
// the set-associative L4 at the sampled gigascale point's geometry:
// ACCORD 2-way, 64 MiB, so a 16 MiB host-side tag store that no host
// cache holds. A fixed stream of random lines over four times the
// cache's capacity (one write in four) is fed in 256-event windows, the
// size the sampling spine hands over, and ns/event is reported.
//
// "batch" is FunctionalBatch, whose tag-store touch pass overlaps the
// window's host-memory misses; "per-event" applies the same windows
// through AccessReadFunctional/WritebackFunctional one by one, the loop
// FunctionalBatch ran before that pass existed.
func BenchmarkFunctionalBatch(b *testing.B) {
	const (
		capacity = 64 << 20
		ways     = 2
		sets     = capacity / (ways * memtypes.LineSize)
		events   = 4 << 20
		window   = 256
	)
	rng := rand.New(rand.NewSource(1))
	lines := make([]memtypes.LineAddr, events)
	flags := make([]uint8, events)
	for i := range lines {
		lines[i] = memtypes.LineAddr(rng.Int63n(4 * sets * ways))
		if rng.Intn(4) == 0 {
			flags[i] = FunctionalWrite
		}
	}
	run := func(b *testing.B, apply func(c *Cache, lines []memtypes.LineAddr, flags []uint8)) {
		c := build(sets, ways, LookupPredicted, accordPolicy(sets, ways))
		apply(c, lines, flags) // warm: fill the tag store off the clock
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			apply(c, lines, flags)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/events, "ns/event")
	}
	b.Run("batch", func(b *testing.B) {
		run(b, func(c *Cache, lines []memtypes.LineAddr, flags []uint8) {
			for i := 0; i < len(lines); i += window {
				c.FunctionalBatch(lines[i:i+window], flags[i:i+window])
			}
		})
	})
	b.Run("per-event", func(b *testing.B) {
		run(b, func(c *Cache, lines []memtypes.LineAddr, flags []uint8) {
			for i, line := range lines {
				if flags[i]&FunctionalWrite != 0 {
					c.WritebackFunctional(line)
				} else {
					c.AccessReadFunctional(line)
				}
			}
		})
	})
}
