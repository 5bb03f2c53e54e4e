// Command tecosim regenerates the paper's tables and figures.
//
// Usage:
//
//	tecosim [flags] <experiment>
//	tecosim -list
//
// where <experiment> is one of the ids printed by -list (e.g. table1,
// fig11, lammps) or "all". Every knob flag (-seed, -ber, -layers, ...) is
// generated from experiments.Knobs; -h lists them.
package main

import (
	"flag"
	"fmt"
	"os"

	"teco/internal/core"
	"teco/internal/experiments"
	"teco/internal/profileflags"
)

func main() {
	opt := experiments.Options{Seed: 42}
	experiments.RegisterFlags(flag.CommandLine, &opt)
	markdown := flag.Bool("markdown", false, "emit GitHub-flavoured markdown instead of aligned text")
	list := flag.Bool("list", false, "list experiment ids and exit")
	prof := profileflags.Register(nil)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tecosim [flags] <experiment>\n")
		fmt.Fprintf(os.Stderr, "experiments: %v\n", experiments.IDs())
		flag.PrintDefaults()
	}
	flag.Parse()
	// The process-wide default catches engines built outside the experiment
	// generators (zz tools, future callers); Options.PerLine covers the
	// generators themselves.
	core.SetPerLineDefault(opt.PerLine)

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tabs, err := experiments.ByIDWith(flag.Arg(0), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, t := range tabs {
		if *markdown {
			t.Markdown(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
