package experiments

import (
	"context"
	"flag"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"teco/internal/cxl"
	"teco/internal/staging"
	"teco/internal/tiering"
)

// Options parameterizes experiment generation beyond the seed. Every field
// but Ctx is declared once in Knobs, which the tecosim flags, the tecosimd
// request parsing, Validate and Fingerprint are generated from. The zero
// value runs every experiment on its default grid.
type Options struct {
	Seed              int64
	BER               float64
	RetryBudget       int
	Degrade           bool
	CkptInterval      int
	CkptDir           string
	CrashAt           int
	Workers           int
	Replicas          int
	HostPorts         int
	KillPort          int
	Layers            int
	CachePct          int
	PrefetchDepth     int
	LayerPolicy       string
	LayerSeqLen       int
	TierPolicy        string
	TierDRAMPct       int
	TierMigrateBudget int
	NoMemo            bool
	PerLine           bool

	// Ctx, when non-nil, bounds the whole generation: the sweep pool stops
	// dispatching grid points as soon as it is cancelled (the sweep service
	// threads per-request deadlines through here). A cancelled generation
	// yields zero-value cells for the unreached points — callers that see
	// Ctx.Err() != nil afterwards must discard the result. It is a runtime
	// handle, not a knob.
	Ctx context.Context
}

// context returns the generation-bounding context (Background when unset).
func (opt Options) context() context.Context {
	if opt.Ctx != nil {
		return opt.Ctx
	}
	return context.Background()
}

// Class says whether a knob can change a table cell.
type Class uint8

const (
	// Result knobs shape the tables: tecosimd reads them from the request
	// and Fingerprint encodes them.
	Result Class = iota
	// Scheduling knobs change only wall-clock (the determinism harnesses
	// prove it), so they stay process-side and never reach a fingerprint.
	Scheduling
)

// Knob declares one Options field.
type Knob struct {
	// Name is the wire name; the tecosim flag is Name with '_' → '-'.
	Name  string
	Class Class
	// Min and Max bound a numeric knob, inclusive; both zero leaves it
	// unbounded.
	Min, Max float64
	// Default is the value 0 stands for in every experiment (0: none). A
	// knob set to its default has the identity of one left at zero.
	Default float64
	// Negate marks a bool flag that holds the field's negation.
	Negate bool
	Usage  string
	// Field points at the bound Options field; its type (*int, *int64,
	// *float64, *bool or *string) is the knob's type.
	Field func(*Options) any
}

// Knobs is the one declaration of every Options field, in fingerprint
// order. Each upper bound admits every default-grid value and every value
// the goldens, tests, examples and benchmark use; its comment says why
// larger values are refused.
var Knobs = []Knob{
	{Name: "seed", Usage: "random seed for the real-training experiments and fault draws",
		Field: func(o *Options) any { return &o.Seed }},
	// A bit-error rate is a probability below 1 (cxl.FaultConfig.Validate).
	{Name: "ber", Max: math.Nextafter(1, 0), Usage: "link bit-error rate for the fault sweeps (0: default grid)",
		Field: func(o *Options) any { return &o.BER }},
	// 128x the link default. At high BER the faults sweep's cost grows with
	// the budget: 100000 rounds at BER 0.1 take 0.3 s against 8 ms.
	{Name: "retry_budget", Max: 1024, Default: cxl.DefaultRetryBudget,
		Usage: "link-layer retransmit budget before poisoning",
		Field: func(o *Options) any { return &o.RetryBudget }},
	{Name: "degrade", Usage: "enable graceful degradation from DBA to full-line transfers under faults",
		Field: func(o *Options) any { return &o.Degrade }},
	// The recovery run is recoverySteps long: a longer interval never
	// checkpoints and a later crash never fires.
	{Name: "ckpt_interval", Max: recoverySteps, Usage: "checkpoint interval in steps for the recovery sweep (0: default grid)",
		Field: func(o *Options) any { return &o.CkptInterval }},
	{Name: "ckpt_dir", Class: Scheduling, Usage: "root directory for recovery-sweep checkpoints (default: system temp)",
		Field: func(o *Options) any { return &o.CkptDir }},
	{Name: "crash_at", Max: recoverySteps, Usage: "kill and restore each recovery-sweep run at this step (0: no crash)",
		Field: func(o *Options) any { return &o.CrashAt }},
	{Name: "workers", Class: Scheduling, Usage: "sweep worker pool size (0: GOMAXPROCS, 1: serial); tables are identical at every setting",
		Field: func(o *Options) any { return &o.Workers }},
	// The fabric sweeps run batch 16, so a wider group leaves a replica
	// without a sample; more uplinks than replicas, or a port past them,
	// never carries traffic.
	{Name: "replicas", Max: 16, Usage: "data-parallel width for the fabric sweeps (0: default grid)",
		Field: func(o *Options) any { return &o.Replicas }},
	{Name: "host_ports", Max: 16, Usage: "fabric spine uplink count (0: oversubscription grid)",
		Field: func(o *Options) any { return &o.HostPorts }},
	{Name: "kill_port", Max: 16, Usage: "1-based fabric port to kill in the fault sweep (0: the last replica's)",
		Field: func(o *Options) any { return &o.KillPort }},
	// Ten times GPT-3's 96 layers; the sweep cost is superlinear in the
	// count (4096 layers take 0.4 s, 100000 ran past 60 s). A deeper
	// look-ahead than the deepest model fetches nothing more.
	{Name: "layers", Max: 1024, Usage: "layer count for the layers sweeps (0: default grid)",
		Field: func(o *Options) any { return &o.Layers }},
	{Name: "cache_pct", Max: 100, Usage: "fast-tier size for the layers sweeps, percent of model parameter bytes (0: defaults)",
		Field: func(o *Options) any { return &o.CachePct }},
	{Name: "prefetch", Max: 1024, Usage: "prefetch look-ahead depth in layers for the layers sweeps (0: defaults)",
		Field: func(o *Options) any { return &o.PrefetchDepth }},
	{Name: "layer_policy", Usage: "eviction policy for the layers-policy sweep: lru, fifo, pin (empty: full set)",
		Field: func(o *Options) any { return &o.LayerPolicy }},
	// One Mi tokens, past the longest contexts in use; activation bytes grow
	// linearly with it.
	{Name: "layer_seq_len", Max: 1 << 20, Default: defaultSeqLen, Usage: "long-context sequence length for the layers-policy sweep",
		Field: func(o *Options) any { return &o.LayerSeqLen }},
	{Name: "tier_policy", Usage: "placement policy for the tiering sweeps: heat, lru, static (empty: defaults)",
		Field: func(o *Options) any { return &o.TierPolicy }},
	{Name: "tier_dram_pct", Max: 100, Usage: "fast-tier size for the tiering sweeps, percent of tiered slot bytes (0: defaults)",
		Field: func(o *Options) any { return &o.TierDRAMPct }},
	// One TiB per step exceeds the tiered bytes of every model in the zoo,
	// so a larger budget behaves identically.
	{Name: "tier_migrate_budget", Max: 1 << 20, Usage: "per-step migration budget in MiB for the tiering sweeps (0: defaults)",
		Field: func(o *Options) any { return &o.TierMigrateBudget }},
	{Name: "no_memo", Class: Scheduling, Usage: "disable shared-run memoization across experiments (slower, identical output)",
		Field: func(o *Options) any { return &o.NoMemo }},
	{Name: "coalesce", Class: Scheduling, Negate: true,
		Usage: "flow-coalescing fast path for the stream simulator; false runs the bit-identical per-line reference path (slow)",
		Field: func(o *Options) any { return &o.PerLine }},
}

// Set parses s into the knob's field of o.
func (k *Knob) Set(o *Options, s string) (err error) {
	switch p := k.Field(o).(type) {
	case *int:
		*p, err = strconv.Atoi(s)
	case *int64:
		*p, err = strconv.ParseInt(s, 10, 64)
	case *float64:
		*p, err = strconv.ParseFloat(s, 64)
	case *bool:
		*p, err = strconv.ParseBool(s)
		*p = *p != k.Negate
	case *string:
		*p = s
	}
	if err != nil {
		return fmt.Errorf("%s: %w", k.Name, err)
	}
	return nil
}

// value returns the knob's numeric value in o and whether it is numeric.
func (k *Knob) value(o *Options) (float64, bool) {
	if v := reflect.ValueOf(k.Field(o)).Elem(); v.CanInt() {
		return float64(v.Int()), true
	} else if v.CanFloat() {
		return v.Float(), true
	}
	return 0, false
}

// RegisterFlags declares every knob on fs, bound to the matching field of
// opt; opt's current values are the flag defaults.
func RegisterFlags(fs *flag.FlagSet, opt *Options) {
	for i := range Knobs {
		k := &Knobs[i]
		name, usage := strings.ReplaceAll(k.Name, "_", "-"), k.Usage
		if k.Default != 0 {
			usage += fmt.Sprintf(" (0: default %g)", k.Default)
		}
		switch p := k.Field(opt).(type) {
		case *int:
			fs.IntVar(p, name, *p, usage)
		case *int64:
			fs.Int64Var(p, name, *p, usage)
		case *float64:
			fs.Float64Var(p, name, *p, usage)
		case *string:
			fs.StringVar(p, name, *p, usage)
		case *bool:
			if !k.Negate {
				fs.BoolVar(p, name, *p, usage)
			} else {
				fs.BoolFunc(name, fmt.Sprintf("%s (default %t)", usage, !*p), func(s string) error { return k.Set(opt, s) })
			}
		}
	}
}

// Validate rejects options no experiment can model, before any cell runs:
// every knob within its bounds, plus the checks that span knobs.
func (opt Options) Validate() error {
	for i := range Knobs {
		k := &Knobs[i]
		if v, ok := k.value(&opt); ok && (k.Min != 0 || k.Max != 0) && !(v >= k.Min && v <= k.Max) {
			return fmt.Errorf("experiments: %s %s outside %s..%s", k.Name,
				strconv.FormatFloat(v, 'f', -1, 64), strconv.FormatFloat(k.Min, 'f', -1, 64), strconv.FormatFloat(k.Max, 'f', -1, 64))
		}
	}
	if replicas := fabricFaultReplicas(opt); opt.KillPort > replicas {
		return fmt.Errorf("experiments: kill port %d outside 1..%d", opt.KillPort, replicas)
	}
	if err := (cxl.FaultConfig{Seed: opt.Seed, BER: opt.BER, RetryBudget: opt.RetryBudget}).Validate(); err != nil {
		return err
	}
	if _, err := staging.ParsePolicy(opt.LayerPolicy); err != nil {
		return err
	}
	_, err := tiering.ParsePolicy(opt.TierPolicy)
	return err
}
