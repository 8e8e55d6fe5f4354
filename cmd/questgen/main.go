// Command questgen generates synthetic market-basket databases with
// the IBM-Quest-style generator the paper's evaluation uses (§6),
// writing the conventional one-transaction-per-line .dat format to
// stdout or a file.
//
// Usage:
//
//	questgen -preset T10I4 -n 1000000 -seed 1 -o t10i4.dat
//	questgen -T 8 -I 3 -items 500 -patterns 800 -n 50000
package main

import (
	"flag"
	"fmt"
	"os"

	"secmr/internal/quest"
)

func main() {
	var (
		preset   = flag.String("preset", "", "paper preset: T5I2, T10I4 or T20I6 (overrides -T/-I)")
		n        = flag.Int("n", 100000, "number of transactions")
		avgT     = flag.Float64("T", 10, "average transaction length")
		avgI     = flag.Float64("I", 4, "average pattern length")
		items    = flag.Int("items", 1000, "item universe size N")
		patterns = flag.Int("patterns", 2000, "number of maximal potential itemsets |L|")
		corr     = flag.Float64("corr", 0.5, "pattern correlation level")
		seed     = flag.Int64("seed", 1, "generator seed")
		out      = flag.String("o", "", "output file (default stdout)")
		stats    = flag.Bool("stats", false, "print database statistics to stderr")
	)
	flag.Parse()

	var params quest.Params
	var err error
	if *preset != "" {
		params, err = quest.Preset(*preset, *n, *seed)
		if err != nil {
			fatal(err)
		}
		// The preset fixes -T/-I only: universe, pattern-table and
		// correlation flags still apply when given explicitly.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "items":
				params.NumItems = *items
			case "patterns":
				params.NumPatterns = *patterns
			case "corr":
				params.Correlation = *corr
			}
		})
	} else {
		params = quest.Params{
			NumTransactions: *n, AvgTransLen: *avgT, AvgPatternLen: *avgI,
			NumItems: *items, NumPatterns: *patterns, Correlation: *corr, Seed: *seed,
		}
	}
	db := quest.Generate(params)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if _, err := db.WriteTo(w); err != nil {
		fatal(err)
	}
	total := 0
	for _, tx := range db.Tx {
		total += len(tx)
	}
	fmt.Fprintf(os.Stderr, "wrote %d transactions (avg len %.2f)\n",
		db.Len(), float64(total)/float64(db.Len()))
	if *stats {
		if err := quest.Analyze(db, 10).Render(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "questgen:", err)
	os.Exit(1)
}
