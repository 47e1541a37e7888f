package sim

import (
	"accord/internal/cpu"
	"accord/internal/dramcache"
	"accord/internal/memtypes"
)

// Monomorphized backend dispatch. memAdapter routes every core access
// through a dramcache.Interface call, which costs an itab lookup per
// event and — more importantly — walls the backend's hot path off from
// the inliner. The adapters below are the same three-line bridges with
// the backend's concrete type spelled out, so AccessRead/Writeback and
// the functional variants compile as direct calls. newMemAdapter picks
// the specialization by the concrete type the registry's constructor
// returned; unknown types (external backends registered by tests or
// future growth) fall back to the generic memAdapter, which remains the
// contract anchor the differential suite checks every specialization
// against.
//
// Hand-written rather than generic on purpose: Go stencils generics by
// GC shape, and every backend is a single pointer, so a type-parameter
// version would compile to one shared instantiation calling through a
// dictionary — dynamic dispatch again, just spelled differently.

// forceGenericAdapter, when true, makes newMemAdapter return the generic
// interface-dispatch memAdapter regardless of backend type. Test hook
// for the specialized-vs-generic differential, allocation, and spine
// suites; the zero value is the production fast path. Like
// forceFreshForkSystems it is deliberately not part of Config: engine
// choice must never change results, so it has no place in memo keys or
// warm fingerprints.
var forceGenericAdapter = false

// newMemAdapter returns the post-L3-stream memory adapter for l4,
// specialized to the backend's concrete type when known.
func newMemAdapter(l4 dramcache.Interface) cpu.MemorySystem {
	if forceGenericAdapter {
		return memAdapter{l4: l4}
	}
	switch b := l4.(type) {
	case *dramcache.Cache:
		return nwayAdapter{l4: b}
	case *dramcache.CACache:
		return caAdapter{l4: b}
	case *dramcache.Banshee:
		return bansheeAdapter{l4: b}
	case *dramcache.Gemini:
		return geminiAdapter{l4: b}
	case *dramcache.TDRAM:
		return tdramAdapter{l4: b}
	default:
		return memAdapter{l4: l4}
	}
}

type nwayAdapter struct{ l4 *dramcache.Cache }

func (m nwayAdapter) Read(at int64, line memtypes.LineAddr) int64 {
	return m.l4.AccessRead(at, line).Done
}
func (m nwayAdapter) Write(at int64, line memtypes.LineAddr) { m.l4.Writeback(at, line) }
func (m nwayAdapter) ReadFunctional(line memtypes.LineAddr)  { m.l4.AccessReadFunctional(line) }
func (m nwayAdapter) WriteFunctional(line memtypes.LineAddr) { m.l4.WritebackFunctional(line) }
func (m nwayAdapter) BatchFunctional(lines []memtypes.LineAddr, flags []uint8) {
	m.l4.FunctionalBatch(lines, flags)
}

type caAdapter struct{ l4 *dramcache.CACache }

func (m caAdapter) Read(at int64, line memtypes.LineAddr) int64 {
	return m.l4.AccessRead(at, line).Done
}
func (m caAdapter) Write(at int64, line memtypes.LineAddr) { m.l4.Writeback(at, line) }
func (m caAdapter) ReadFunctional(line memtypes.LineAddr)  { m.l4.AccessReadFunctional(line) }
func (m caAdapter) WriteFunctional(line memtypes.LineAddr) { m.l4.WritebackFunctional(line) }
func (m caAdapter) BatchFunctional(lines []memtypes.LineAddr, flags []uint8) {
	m.l4.FunctionalBatch(lines, flags)
}

type bansheeAdapter struct{ l4 *dramcache.Banshee }

func (m bansheeAdapter) Read(at int64, line memtypes.LineAddr) int64 {
	return m.l4.AccessRead(at, line).Done
}
func (m bansheeAdapter) Write(at int64, line memtypes.LineAddr) { m.l4.Writeback(at, line) }
func (m bansheeAdapter) ReadFunctional(line memtypes.LineAddr)  { m.l4.AccessReadFunctional(line) }
func (m bansheeAdapter) WriteFunctional(line memtypes.LineAddr) { m.l4.WritebackFunctional(line) }
func (m bansheeAdapter) BatchFunctional(lines []memtypes.LineAddr, flags []uint8) {
	m.l4.FunctionalBatch(lines, flags)
}

type geminiAdapter struct{ l4 *dramcache.Gemini }

func (m geminiAdapter) Read(at int64, line memtypes.LineAddr) int64 {
	return m.l4.AccessRead(at, line).Done
}
func (m geminiAdapter) Write(at int64, line memtypes.LineAddr) { m.l4.Writeback(at, line) }
func (m geminiAdapter) ReadFunctional(line memtypes.LineAddr)  { m.l4.AccessReadFunctional(line) }
func (m geminiAdapter) WriteFunctional(line memtypes.LineAddr) { m.l4.WritebackFunctional(line) }
func (m geminiAdapter) BatchFunctional(lines []memtypes.LineAddr, flags []uint8) {
	m.l4.FunctionalBatch(lines, flags)
}

type tdramAdapter struct{ l4 *dramcache.TDRAM }

func (m tdramAdapter) Read(at int64, line memtypes.LineAddr) int64 {
	return m.l4.AccessRead(at, line).Done
}
func (m tdramAdapter) Write(at int64, line memtypes.LineAddr) { m.l4.Writeback(at, line) }
func (m tdramAdapter) ReadFunctional(line memtypes.LineAddr)  { m.l4.AccessReadFunctional(line) }
func (m tdramAdapter) WriteFunctional(line memtypes.LineAddr) { m.l4.WritebackFunctional(line) }
func (m tdramAdapter) BatchFunctional(lines []memtypes.LineAddr, flags []uint8) {
	m.l4.FunctionalBatch(lines, flags)
}
