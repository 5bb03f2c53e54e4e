package experiments

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestKnobTableCoversOptions: every Options field but Ctx is bound by
// exactly one knob, so a field added without a table entry — and with it
// no flag, no wire name, no bounds and no class — fails here.
func TestKnobTableCoversOptions(t *testing.T) {
	var o Options
	bound := map[any]string{}
	names := map[string]bool{}
	for i := range Knobs {
		k := &Knobs[i]
		if names[k.Name] || k.Name == "" || strings.Contains(k.Name, "-") {
			t.Fatalf("knob %d: bad or duplicate wire name %q", i, k.Name)
		}
		names[k.Name] = true
		p := k.Field(&o)
		if prev, dup := bound[p]; dup {
			t.Fatalf("knobs %s and %s bind the same field", prev, k.Name)
		}
		bound[p] = k.Name
		if k.Min > k.Max {
			t.Fatalf("knob %s: bounds %g..%g", k.Name, k.Min, k.Max)
		}
	}
	v := reflect.ValueOf(&o).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Name == "Ctx" {
			continue // a runtime handle, not a knob
		}
		if _, ok := bound[v.Field(i).Addr().Interface()]; !ok {
			t.Errorf("Options.%s has no entry in Knobs", f.Name)
		}
	}
	if len(bound) != v.NumField()-1 {
		t.Fatalf("%d knobs for %d Options fields", len(bound), v.NumField()-1)
	}
}

// TestRegisterFlags: the generated flags keep the historical dashed names
// and meanings, including -coalesce as the negation of PerLine.
func TestRegisterFlags(t *testing.T) {
	opt := Options{Seed: 42}
	fs := flag.NewFlagSet("tecosim", flag.ContinueOnError)
	RegisterFlags(fs, &opt)
	args := []string{"-ber", "1e-5", "-retry-budget", "4", "-degrade", "-layer-policy", "fifo",
		"-tier-migrate-budget", "64", "-no-memo", "-coalesce=false", "-ckpt-dir", "d", "-workers", "2"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	want := Options{Seed: 42, BER: 1e-5, RetryBudget: 4, Degrade: true, LayerPolicy: "fifo",
		TierMigrateBudget: 64, NoMemo: true, PerLine: true, CkptDir: "d", Workers: 2}
	if !reflect.DeepEqual(opt, want) {
		t.Fatalf("parsed %+v, want %+v", opt, want)
	}
	fs = flag.NewFlagSet("tecosim", flag.ContinueOnError)
	opt = Options{}
	RegisterFlags(fs, &opt)
	if err := fs.Parse([]string{"-coalesce"}); err != nil || opt.PerLine {
		t.Fatalf("-coalesce: PerLine %v, err %v", opt.PerLine, err)
	}
	if f := fs.Lookup("coalesce"); !strings.HasSuffix(f.Usage, "(default true)") {
		t.Fatalf("-coalesce usage %q does not say it defaults to true", f.Usage)
	}
	if fs.Lookup("kill-step") != nil {
		t.Fatal("-kill-step is gone: no generator ever read it")
	}
}

// TestValidateBounds: each bound is inclusive, the cross-knob checks still
// hold, and an oversized layer count fails fast instead of running.
func TestValidateBounds(t *testing.T) {
	ok := []Options{
		{}, {Layers: 1024, PrefetchDepth: 1024, CachePct: 100, TierDRAMPct: 100},
		{Replicas: 16, KillPort: 16, HostPorts: 16}, {RetryBudget: 1024, BER: 0.5},
		{CkptInterval: 40, CrashAt: 40}, {LayerSeqLen: 1 << 20, TierMigrateBudget: 1 << 20},
		{Seed: -5, Workers: -1}, {LayerPolicy: "pin", TierPolicy: "static"},
	}
	for _, o := range ok {
		if err := o.Validate(); err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
	}
	bad := []Options{
		{Layers: 1025}, {CachePct: -1}, {KillPort: 5}, {Replicas: 2, KillPort: 3}, {BER: 1},
		{RetryBudget: -1}, {CrashAt: 41}, {LayerPolicy: "mru"}, {TierPolicy: "mru"},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Fatalf("%+v accepted", o)
		}
	}
	if _, err := ByIDWith("layers", Options{Layers: 100000}); err == nil || !strings.Contains(err.Error(), "layers 100000 outside 0..1024") {
		t.Fatalf("layers=100000: %v", err)
	}
}

// TestRegistryOrder: the registry keeps the historical id order, aliases
// resolve, and "all" runs the paper-order subset.
func TestRegistryOrder(t *testing.T) {
	want := []string{"table1", "fig2", "ablation-inval", "fig11", "table5", "fig10",
		"fig12", "volume", "table6", "fig13", "table7", "table8", "lammps",
		"tune-act", "ablation-dpu", "time-to-loss", "linkspeed", "faults",
		"recovery", "fabric", "fabric-faults", "layers", "layers-policy",
		"tiering", "tiering-policy", "all"}
	if !reflect.DeepEqual(IDs(), want) {
		t.Fatalf("IDs() = %v", IDs())
	}
	for _, id := range []string{"table4", "fig2a", "fig2b", "all"} {
		if !Known(id) {
			t.Fatalf("%s not known", id)
		}
	}
	if Known("kill-step") || Known("") {
		t.Fatal("unknown ids accepted")
	}
	var inAll int
	for _, e := range registry {
		if e.inAll {
			inAll++
		}
	}
	if inAll != 21 {
		t.Fatalf("all runs %d generators, want 21", inAll)
	}
}
