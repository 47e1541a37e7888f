package cpu

import (
	"fmt"

	"accord/internal/ckpt"
	"accord/internal/workloads"
)

// coreVersion tags the Core encoding; bump on any layout change.
const coreVersion = 1

// Snapshot serializes the core's state and the workload stream's cursor.
// The functional subset (detailed false) is what functional
// fast-forwarding defines: retired instructions, the issue-width carry,
// the event-mix counters, and the stream cursor. A detailed snapshot
// adds the timing state interleaved in a fixed order — the clock, MSHR
// completion times, the MSHR-stall counter, and the window marks — which
// a functional and a detailed run of the same events disagree on by
// construction. The cumulative counters are included because
// Result.Events and Result.InstructionsTotal report warmup work too: a
// restored run must account for the instructions the checkpoint already
// retired. It returns an error when the stream does not implement
// workloads.Checkpointer; such cores cannot be checkpointed.
func (c *Core) Snapshot(e *ckpt.Encoder, detailed bool) error {
	cp, ok := c.stream.(workloads.Checkpointer)
	if !ok {
		return fmt.Errorf("cpu: core %d stream %T does not support checkpointing", c.id, c.stream)
	}
	e.U8(coreVersion)
	if detailed {
		e.I64(c.time)
	}
	e.I64(c.instr)
	e.I64(c.instCarry)
	if detailed {
		e.U32(uint32(len(c.mshr)))
		for _, m := range c.mshr {
			e.I64(m)
		}
	}
	e.U64(c.reads)
	e.U64(c.writes)
	e.U64(c.depStalls)
	if detailed {
		e.U64(c.mshrStalls)
		e.I64(c.markTime)
		e.I64(c.markInstr)
	}
	cp.Snapshot(e)
	return nil
}

// Restore replaces the core's state with a snapshot of the same kind
// (detailed or functional). A functional restore then resets everything
// the blob deliberately excludes — clock, MSHRs, MSHR-stall count,
// window marks — to the canonical fresh-core values via
// ResetSampleTiming: this is the fork half of parallel interval
// sampling, so a worker restoring a spine fork gets exactly the state a
// brand-new core would have after functionally retiring the same
// events. On error the core is left in an unspecified state and must be
// discarded.
func (c *Core) Restore(d *ckpt.Decoder, detailed bool) error {
	cp, ok := c.stream.(workloads.Checkpointer)
	if !ok {
		return fmt.Errorf("cpu: core %d stream %T does not support checkpointing", c.id, c.stream)
	}
	if v := d.U8(); d.Err() == nil && v != coreVersion {
		d.Failf("cpu: snapshot version %d, want %d", v, coreVersion)
	}
	if detailed {
		c.time = d.I64()
	}
	c.instr = d.I64()
	c.instCarry = d.I64()
	if detailed {
		if n := d.U32(); d.Err() == nil && int(n) != len(c.mshr) {
			d.Failf("cpu: snapshot has %d MSHRs, core has %d", n, len(c.mshr))
		}
		if err := d.Err(); err != nil {
			return err
		}
		for i := range c.mshr {
			c.mshr[i] = d.I64()
		}
	}
	c.reads = d.U64()
	c.writes = d.U64()
	c.depStalls = d.U64()
	if detailed {
		c.mshrStalls = d.U64()
		c.markTime = d.I64()
		c.markInstr = d.I64()
	}
	if err := d.Err(); err != nil {
		return err
	}
	if err := cp.Restore(d); err != nil {
		return err
	}
	if !detailed {
		c.ResetSampleTiming()
	}
	return nil
}
