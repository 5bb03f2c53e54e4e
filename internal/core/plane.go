package core

import (
	"teco/internal/cxl"
	"teco/internal/mem"
	"teco/internal/sim"
)

// slotPlane is the far-tier transfer plane StepLayered and RunTiered price
// slot placement on: a private engine with a fetch (far→fast) and a
// writeback (fast→far) stream, sharing no queue with the coherence
// streams, and the completion time of each slot's eager load still in
// flight. Which slot is where is the controllers' business
// (staging.Residency, tiering.Controller); the plane only turns their
// decisions into link time and exposed stalls.
type slotPlane struct {
	fetch, wb *cxl.Stream
	arrive    []sim.Time // per-slot eager-load completion (0: none in flight)
	wire      int
}

func newSlotPlane(e *Engine, slots int) *slotPlane {
	eng := sim.New()
	return &slotPlane{
		fetch:  cxl.NewStream(cxl.NewLink(eng, e.LinkBandwidth, e.QueueCap), e.Config.PerLine),
		wb:     cxl.NewStream(cxl.NewLink(eng, e.LinkBandwidth, e.QueueCap), e.Config.PerLine),
		arrive: make([]sim.Time, slots),
		wire:   cxl.WirePacketBytes(0),
	}
}

// pull streams n bytes far→fast on the critical path at t and returns the
// stall.
func (p *slotPlane) pull(n int64, t sim.Time) sim.Time {
	return p.fetch.PushRun(t, int(n), mem.LinesIn(n), 0, p.wire, false).Done - t
}

// push streams slot k's n bytes fast→far at t, off the critical path.
func (p *slotPlane) push(k int, n int64, t sim.Time) {
	p.wb.PushRun(t, int(n), mem.LinesIn(n), 0, p.wire, false)
	p.arrive[k] = 0
}

// load starts the eager far→fast load of slot k's n bytes at t.
func (p *slotPlane) load(k int, n int64, t sim.Time) {
	p.arrive[k] = p.fetch.PushRun(t, int(n), mem.LinesIn(n), 0, p.wire, false).Done
}

// access prices a demand access to slot k (n bytes) at t and returns the
// stall: the full pull when the slot is far, only the residual wait when
// an eager load is still arriving, zero on a settled fast hit.
func (p *slotPlane) access(k int, fast bool, n int64, t sim.Time) sim.Time {
	done := p.arrive[k]
	p.arrive[k] = 0
	if !fast {
		return p.pull(n, t)
	}
	if done > t {
		return done - t
	}
	return 0
}

// share is part i of d split n ways, telescoped so the parts sum to d
// exactly: layer i's slice of a compute phase.
func share(d sim.Time, i, n int) sim.Time {
	return d*sim.Time(i+1)/sim.Time(n) - d*sim.Time(i)/sim.Time(n)
}
