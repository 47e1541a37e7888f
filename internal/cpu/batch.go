package cpu

import (
	"accord/internal/memtypes"
	"accord/internal/workloads"
)

// WindowStream is the optional batch view of a workload stream: it
// exposes the stream's internal buffer as parallel slices so a consumer
// can scan a whole run of events without the per-event Next call, then
// commit how many it actually used. workloads.Cursor (the shared trace
// cache) implements it; streams that don't simply run per-event.
type WindowStream interface {
	// Window returns the remaining events of the current buffered chunk
	// as parallel slices (never empty for an unbounded stream). The
	// slices alias stream-owned memory and are invalidated by Consume.
	Window() (gaps []int32, lines []memtypes.LineAddr, flags []uint8)
	// Consume advances the cursor past the first n events of the last
	// returned window.
	Consume(n int)
}

// BatchFunctionalMemory is the optional batch view of a core's memory
// system: one call applies a run of functional accesses, where
// flags[i]&workloads.FlagWrite selects a functional write (other flag
// bits are ignored). Implementations dispatch once per batch instead of
// once per event, which is where the spine-batching speedup lives.
type BatchFunctionalMemory interface {
	BatchFunctional(lines []memtypes.LineAddr, flags []uint8)
}

// Compile-time pins of the flag-bit positions StepFunctionalBatch's
// branch-free event counting relies on (division by zero here means the
// workloads flag encoding moved).
const (
	_ = 1 / (workloads.FlagWrite & 1)      // FlagWrite must be bit 0
	_ = 1 / ((workloads.FlagDep >> 1) & 1) // FlagDep must be bit 1
)

// SupportsBatchFunctional reports whether both the core's stream and
// memory system expose batch views, i.e. whether StepFunctionalBatch
// runs chunk-granular rather than falling back to StepFunctional.
func (c *Core) SupportsBatchFunctional() bool {
	return c.wstream != nil && c.bmem != nil
}

// StepFunctionalBatch advances functional execution toward the absolute
// instruction target, consuming at most one stream window per call (so a
// multi-core driver can round-robin at window granularity). It is
// behavior-identical to calling StepFunctional until Instructions() >=
// target: the same events mutate the same functional state, the
// issue-width carry is reduced with the same modulus (the quotient of a
// sum equals the chained per-event quotients only in the dropped clock
// term; the remainder (a+Σg) mod w is exactly the chained remainder),
// and the event-mix counters count the same events. What the batch form
// buys is hoisting the per-event interface dispatches, bounds checks,
// and target comparisons into one scan over the window plus one
// BatchFunctional call. Callers must check SupportsFunctional; without
// batch views it degrades to a single StepFunctional.
func (c *Core) StepFunctionalBatch(target int64) {
	if c.wstream == nil || c.bmem == nil {
		c.StepFunctional()
		return
	}
	gaps, lines, flags := c.wstream.Window()
	if len(gaps) == 0 {
		// Defensive: an exhausted bounded window stream cannot make
		// progress; fall back so the caller's loop terminates or panics
		// the same way the per-event path would.
		c.StepFunctional()
		return
	}
	if cap(c.blines) < len(gaps) {
		c.blines = make([]memtypes.LineAddr, len(gaps))
	}
	blines := c.blines[:len(gaps)]
	// Reslice the parallel windows to the gaps length so the compiler can
	// prove every per-event index in the scan below is in bounds.
	lines = lines[:len(gaps)]
	flags = flags[:len(gaps)]

	// Pass 1: scan the window, stopping exactly at the first event whose
	// retirement reaches the target — byte-identical stopping point to
	// the per-event loop `for instr < target { StepFunctional() }`. The
	// event-mix counters are computed branch-free (flag bits are random
	// enough to mispredict), and the same-page memo check is inlined with
	// the memo in locals so a memo hit costs no call.
	instr := c.instr
	gapSum := int64(0)
	reads, writes, depStalls := uint64(0), uint64(0), uint64(0)
	memoV, memoB := c.memoVPage, c.memoPBase
	used := 0
	for i := range gaps {
		g := int64(gaps[i])
		gapSum += g
		instr += g + 1
		w := uint64(flags[i] & workloads.FlagWrite)  // 0 or 1 (bit 0)
		d := uint64(flags[i]&workloads.FlagDep) >> 1 // 0 or 1 (bit 1)
		writes += w
		reads += 1 - w
		depStalls += d &^ w // dep stalls count on reads only
		vl := lines[i]
		if vp := vl.Page(); vp == memoV {
			blines[i] = memoB + memtypes.LineAddr(vl.PageOffset())
		} else {
			blines[i] = c.translateLine(vl)
			memoV, memoB = c.memoVPage, c.memoPBase
		}
		used = i + 1
		if instr >= target {
			break
		}
	}

	// Reduce the carry once for the whole run: ((a+g1) mod w + g2) mod w
	// == (a+g1+g2) mod w, inductively for any run length.
	c.instCarry += gapSum
	if c.issueMask >= 0 {
		c.instCarry &= c.issueMask
	} else {
		c.instCarry %= c.issueWidth
	}
	c.reads += reads
	c.writes += writes
	c.depStalls += depStalls
	c.bmem.BatchFunctional(blines[:used], flags[:used])
	c.wstream.Consume(used)
	c.instr = instr
}

// ResetSampleTiming discards the core's timing state, leaving it as a
// freshly constructed core that has already retired the current
// functional state: clock at zero, MSHRs idle, MSHR-stall count zero,
// window marks at the current position, translation memo cold. Interval
// sampling calls this at every detailed-window boundary — on the spine
// before it snapshots, and after every restore into a fork — so each
// measured window starts from the same canonical timing state whichever
// fork runs it; that shared canonical start is what makes sampled runs
// byte-identical at any worker count (DESIGN.md §12).
func (c *Core) ResetSampleTiming() {
	c.time = 0
	for i := range c.mshr {
		c.mshr[i] = 0
	}
	c.mshrStalls = 0
	c.markTime = 0
	c.markInstr = c.instr
	c.memoVPage = ^memtypes.PageNum(0)
	clear(c.tlbTag[:])
}

// SetSampledFinal imposes the committed aggregates of a sampled run on
// the core so post-run accessors (Instructions, Counters, IPC, window
// gauges) and the metrics registry report the deterministic committed
// totals rather than whatever timing state the last interval left
// behind. winInstr/winCycles are the summed measured-window
// instructions and cycles, exposed as the current window.
func (c *Core) SetSampledFinal(instr int64, reads, writes, depStalls, mshrStalls uint64, winInstr, winCycles int64) {
	c.instr = instr
	c.reads = reads
	c.writes = writes
	c.depStalls = depStalls
	c.mshrStalls = mshrStalls
	c.markInstr = instr - winInstr
	c.time = winCycles
	c.markTime = 0
}
