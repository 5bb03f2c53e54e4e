package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"teco/internal/conformance"
	"teco/internal/experiments"
)

// goldenDir holds the seed-42 tables every table check compares against.
const goldenDir = "internal/conformance/testdata/golden"

// loadGolden reads and decodes one experiment's golden tables.
func loadGolden(id string) ([]*experiments.Table, error) {
	b, err := os.ReadFile(filepath.Join(goldenDir, id+".json"))
	if err != nil {
		return nil, err
	}
	return conformance.Unmarshal(b)
}

// checkTables verifies one experiment's output. At the golden seed the
// tables must diff clean against the golden (conformance.Diff, with its
// per-table tolerances); at any other seed they must have the golden's
// structure — table ids, headers, row and column counts — and every cell
// that is numeric in the golden must be a finite number.
func checkTables(golden, fresh []*experiments.Table, seed int64) error {
	if seed == conformance.GoldenSeed {
		if errs := conformance.Diff(golden, fresh); len(errs) > 0 {
			return fmt.Errorf("differs from golden: %v", errs[0])
		}
		return nil
	}
	if len(golden) != len(fresh) {
		return fmt.Errorf("%d tables, golden has %d", len(fresh), len(golden))
	}
	for i, g := range golden {
		f := fresh[i]
		if f == nil || f.ID != g.ID {
			return fmt.Errorf("table %d is not %q", i, g.ID)
		}
		if strings.Join(f.Header, "\x00") != strings.Join(g.Header, "\x00") {
			return fmt.Errorf("%s: header %v, golden %v", g.ID, f.Header, g.Header)
		}
		if len(f.Rows) != len(g.Rows) {
			return fmt.Errorf("%s: %d rows, golden %d", g.ID, len(f.Rows), len(g.Rows))
		}
		for r, grow := range g.Rows {
			frow := f.Rows[r]
			if len(frow) != len(grow) {
				return fmt.Errorf("%s row %d: %d cells, golden %d", g.ID, r, len(frow), len(grow))
			}
			for c, gc := range grow {
				if _, ok := number(gc); !ok {
					continue
				}
				if v, ok := number(frow[c]); !ok || math.IsInf(v, 0) || math.IsNaN(v) {
					return fmt.Errorf("%s row %d col %d: %q is not a finite number", g.ID, r, c, frow[c])
				}
			}
		}
	}
	return nil
}

// number parses a table cell's leading number, ignoring a unit suffix
// ("12.5ms", "1.07x", "93.1%", "512MiB").
func number(cell string) (float64, bool) {
	end := 0
	for end < len(cell) && strings.ContainsRune("+-.0123456789eE", rune(cell[end])) {
		end++
	}
	for end > 0 {
		if v, err := strconv.ParseFloat(cell[:end], 64); err == nil {
			return v, true
		}
		end--
	}
	// NaN and Inf render as words; report them as non-finite numbers.
	switch strings.ToLower(strings.TrimLeft(cell, "+-")) {
	case "nan", "inf", "infinity":
		return math.NaN(), true
	}
	return 0, false
}
