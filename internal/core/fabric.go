package core

import (
	"errors"
	"fmt"

	"teco/internal/conformance/check"
	"teco/internal/cxl"
	"teco/internal/dba"
	"teco/internal/fabric"
	"teco/internal/mem"
	"teco/internal/modelzoo"
	"teco/internal/phases"
	"teco/internal/sim"
)

// FabricConfig configures the data-parallel switched-fabric step.
type FabricConfig struct {
	// Replicas is the data-parallel width: one accelerator (and one
	// switch port per direction) per replica, each computing batch/R.
	Replicas int
	// HostPorts sets the spine uplink count (Replicas/HostPorts is the
	// oversubscription ratio); 0 selects Replicas (non-blocking).
	HostPorts int
	// SparePorts adds idle ports per direction for failover.
	SparePorts int
	// HopLatency is the switch traversal latency per flow. Zero keeps a
	// one-replica fabric bit-identical to the point-to-point engine (the
	// conformance equality); experiments pass fabric.DefaultHopLatency.
	HopLatency sim.Time
	// KillPort, when 1..Replicas, kills that replica's ports (1-based,
	// both directions) after its backward pass, before its gradient
	// writeback — the mid-step accelerator-loss case. With a spare port
	// the step fails over; without one the replica is lost, its shard is
	// recomputed by the survivors, and the step completes degraded.
	KillPort int
}

// StepFabric simulates one data-parallel training step over the switched
// fabric: every replica runs forward/backward on its batch shard and
// streams gradients up its own fabric port; the host clips and runs ADAM
// once; parameter writebacks stream down every live replica's port. With
// one replica, no spares and zero hop latency the result is bit-identical
// to Step (asserted by TestStepFabricSingleReplicaMatchesStep) — the
// switch layer degenerates to the bare link.
func (e *Engine) StepFabric(m modelzoo.Model, batch int, fc FabricConfig) (phases.StepResult, error) {
	R := fc.Replicas
	if R < 1 {
		return phases.StepResult{}, fmt.Errorf("core: fabric needs >= 1 replica, got %d", R)
	}
	if batch < R {
		return phases.StepResult{}, fmt.Errorf("core: batch %d smaller than %d replicas", batch, R)
	}
	if fc.KillPort < 0 || fc.KillPort > R {
		return phases.StepResult{}, fmt.Errorf("core: kill port %d outside 1..%d", fc.KillPort, R)
	}
	if e.Config.Invalidation {
		return phases.StepResult{}, fmt.Errorf("core: fabric mode runs the update protocol only")
	}
	useDBA := e.Config.DBA
	degradedDBA := false
	if useDBA && e.Config.Degrade &&
		AggregatedUneconomical(e.Config.Faults, e.Config.DirtyBytes, e.LinkBandwidth) {
		useDBA = false
		degradedDBA = true
	}
	res, err := e.stepFabric(m, batch, fc, useDBA)
	if err != nil {
		return phases.StepResult{}, err
	}
	res.Fault.Degraded = degradedDBA
	if check.Enabled() {
		check.Check(res.Check)
	}
	return res, nil
}

// fabricSwitch builds one direction's switch with per-port derived fault
// seeds (port 0 keeps the direction's base seed, matching stepUpdate).
func (e *Engine) fabricSwitch(fc FabricConfig, seedOffset int64) (*fabric.Switch, error) {
	faults := e.Config.Faults
	if faults.Enabled() {
		faults.Seed = 2*faults.Seed + seedOffset
	}
	return fabric.NewSwitch(fabric.SwitchConfig{
		Ports:      fc.Replicas,
		SparePorts: fc.SparePorts,
		HostPorts:  fc.HostPorts,
		Bandwidth:  e.LinkBandwidth,
		QueueCap:   e.QueueCap,
		PerLine:    e.Config.PerLine,
		HopLatency: fc.HopLatency,
		Faults:     faults,
	})
}

func (e *Engine) stepFabric(m modelzoo.Model, batch int, fc FabricConfig, useDBA bool) (phases.StepResult, error) {
	R := fc.Replicas
	up, err := e.fabricSwitch(fc, 1)
	if err != nil {
		return phases.StepResult{}, err
	}
	down, err := e.fabricSwitch(fc, 2)
	if err != nil {
		return phases.StepResult{}, err
	}

	// Contiguous batch shards, remainder to the low replica ids.
	shard := make([]int, R)
	base, rem := batch/R, batch%R
	for r := range shard {
		shard[r] = base
		if r < rem {
			shard[r]++
		}
	}

	// Scheduled chaos: the replica's ports die after its backward pass,
	// before the gradient writeback.
	kill := fc.KillPort - 1
	if kill >= 0 {
		if err := up.KillPort(kill); err != nil {
			return phases.StepResult{}, err
		}
		if err := down.KillPort(kill); err != nil {
			return phases.StepResult{}, err
		}
	}

	fullWire := cxl.WirePacketBytes(0)
	alive := make([]bool, R)
	bwdEnd := make([]sim.Time, R)
	var fwdMaxLive, detectAt sim.Time
	var gradBytes int64
	lost := -1
	for r := 0; r < R; r++ {
		alive[r] = true
		fwd := e.GPU.ForwardTime(m, shard[r])
		bwd := e.GPU.BackwardTime(m, shard[r])
		bwdEnd[r] = fwd + bwd
		for _, ch := range e.GPU.GradientSchedule(m, shard[r]) {
			_, serr := up.Send(r, fwd+ch.ReadyAt, int(ch.Bytes), mem.LinesIn(ch.Bytes), 0, fullWire, false)
			if serr != nil {
				var pde *fabric.PortDownError
				if !errors.As(serr, &pde) {
					return phases.StepResult{}, serr
				}
				// Link-down detection: the failed writeback surfaces at
				// pde.At, after the timeout and failover probes.
				alive[r] = false
				lost = r
				if pde.At > detectAt {
					detectAt = pde.At
				}
				break
			}
			gradBytes += ch.Bytes
		}
		if alive[r] && fwd > fwdMaxLive {
			fwdMaxLive = fwd
		}
	}
	redistributed := int64(0)
	if lost >= 0 {
		// Graceful degradation: the survivors re-run the lost shard after
		// detection, splitting it evenly, and stream the recomputed
		// gradients up their own (live) ports.
		var survivors []int
		for r := 0; r < R; r++ {
			if alive[r] {
				survivors = append(survivors, r)
			}
		}
		if len(survivors) == 0 {
			return phases.StepResult{}, fmt.Errorf("core: all replicas lost (no spare port)")
		}
		b2, rem2 := shard[lost]/len(survivors), shard[lost]%len(survivors)
		for i, r := range survivors {
			extra := b2
			if i < rem2 {
				extra++
			}
			if extra == 0 {
				continue
			}
			redistributed++
			start := bwdEnd[r]
			if detectAt > start {
				start = detectAt
			}
			fwd2 := e.GPU.ForwardTime(m, extra)
			bwd2 := e.GPU.BackwardTime(m, extra)
			for _, ch := range e.GPU.GradientSchedule(m, extra) {
				if _, serr := up.Send(r, start+fwd2+ch.ReadyAt, int(ch.Bytes), mem.LinesIn(ch.Bytes), 0, fullWire, false); serr != nil {
					return phases.StepResult{}, serr
				}
				gradBytes += ch.Bytes
			}
			bwdEnd[r] = start + fwd2 + bwd2
		}
	}

	// Global gradient barrier: CXLFENCE over every live port's path.
	var maxBwdEnd, gradDone, gradClean sim.Time
	for r := 0; r < R; r++ {
		if !alive[r] {
			continue
		}
		if bwdEnd[r] > maxBwdEnd {
			maxBwdEnd = bwdEnd[r]
		}
		if t := up.FencePort(r, bwdEnd[r]); t > gradDone {
			gradDone = t
		}
		if t := up.FenceCleanPort(r, bwdEnd[r]); t > gradClean {
			gradClean = t
		}
	}

	clip := e.CPU.ClipTime(m.Params)
	clipEnd := gradDone + clip
	adam := e.CPU.AdamTime(m.Params)
	adamEnd := clipEnd + adam

	perLine := e.perLinePayload(useDBA)
	paramWire := fullWire
	var extra sim.Time
	if useDBA {
		extra = dba.ModelledLatency
		paramWire = cxl.WirePacketBytes(e.Config.DirtyBytes)
	}
	var paramBytes int64
	liveDown := 0
	for r := 0; r < R; r++ {
		if !alive[r] {
			continue
		}
		for _, ch := range e.CPU.UpdateSchedule(m) {
			payload := ch.Bytes * int64(perLine) / mem.LineSize
			if _, serr := down.Send(r, clipEnd+ch.ReadyAt, int(payload), mem.LinesIn(ch.Bytes), extra, paramWire, useDBA); serr != nil {
				var pde *fabric.PortDownError
				if !errors.As(serr, &pde) {
					return phases.StepResult{}, serr
				}
				return phases.StepResult{}, fmt.Errorf("core: replica %d unreachable for parameter writeback: %w", r, serr)
			}
		}
		paramBytes += e.paramLinkBytes(m, useDBA)
		liveDown++
	}
	var paramDone, prmClean sim.Time
	paramDone, prmClean = adamEnd, adamEnd
	for r := 0; r < R; r++ {
		if !alive[r] {
			continue
		}
		if t := down.FencePort(r, adamEnd); t > paramDone {
			paramDone = t
		}
		if t := down.FenceCleanPort(r, adamEnd); t > prmClean {
			prmClean = t
		}
	}

	res := phases.StepResult{
		Variant: e.Config.Variant(),
		Breakdown: phases.Breakdown{
			Fwd:  fwdMaxLive,
			Bwd:  maxBwdEnd - fwdMaxLive,
			Grad: gradDone - maxBwdEnd,
			Clip: clip,
			Adam: adam,
			Prm:  paramDone - adamEnd,
		},
		ParamLinkBytes: paramBytes,
		GradLinkBytes:  gradBytes,
	}
	upStats, downStats := up.Stats(), down.Stats()
	res.Fabric = phases.FabricStats{
		Replicas:        int64(R),
		HostPorts:       int64(fc.HostPorts),
		PortsDown:       upStats.PortsDown + downStats.PortsDown,
		Failovers:       upStats.Failovers + downStats.Failovers,
		FailoverRetries: upStats.FailoverRetries + downStats.FailoverRetries,
		SpineBytes:      upStats.SpineBytes + downStats.SpineBytes,
		SpineQueued:     upStats.SpineQueued + downStats.SpineQueued,
		LostReplicas:    int64(R - liveDown),
		Redistributed:   redistributed,
		Degraded:        lost >= 0,
	}
	if res.Fabric.HostPorts == 0 {
		res.Fabric.HostPorts = int64(R)
	}
	if e.Config.Faults.Enabled() {
		var gradRecovery, prmRecovery sim.Time
		var gradRecBytes, prmRecBytes int64
		for i := 0; i < up.PhysPorts(); i++ {
			gradRecovery += poisonRecoveryTime(up.Link(i))
			gradRecBytes += poisonRecoveryBytes(up.Link(i))
		}
		for i := 0; i < down.PhysPorts(); i++ {
			prmRecovery += poisonRecoveryTime(down.Link(i))
			prmRecBytes += poisonRecoveryBytes(down.Link(i))
		}
		res.Grad += gradRecovery
		res.Prm += prmRecovery
		res.GradLinkBytes += gradRecBytes
		res.ParamLinkBytes += prmRecBytes
		fs := up.FaultStats().Add(down.FaultStats())
		res.Fault = phases.FaultStats{
			Retries:       fs.Retries,
			ReplayedBytes: fs.ReplayedBytes,
			Poisoned:      fs.Poisoned,
			Recovered:     fs.Poisoned,
			Stalls:        fs.Stalls,
			StallTime:     fs.StallTime,
			Exposed: (gradDone - gradClean) + (paramDone - prmClean) +
				gradRecovery + prmRecovery,
		}
	}
	if check.Enabled() {
		check.Check(up.CheckInvariants, down.CheckInvariants)
	}
	return res, nil
}
