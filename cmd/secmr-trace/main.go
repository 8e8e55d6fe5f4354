// Command secmr-trace is the offline forensics companion of secmr-sim:
// it merges one or more JSONL trace files (written with -trace-out, or
// captured from /trace) into a single causal DAG — the causal wire
// context every message carries links each send to its deliveries and
// drops across nodes — and answers post-mortem questions about the
// run.
//
// Subcommands:
//
//	secmr-trace dag    run.jsonl ...           merged causal DAG, one line per event
//	secmr-trace path   -rule KEY run.jsonl ... convergence critical path for a rule
//	secmr-trace losses [-grace N] run.jsonl .. message-loss audit: every lost send
//	                                           attributed to its fault cause, or
//	                                           flagged UNEXPLAINED
//	secmr-trace evict  run.jsonl ...           eviction forensics: activation ->
//	                                           detection -> report flood ->
//	                                           evidence/quorum -> quarantine
//	secmr-trace flight DIR [subcommand]        load black-box flight-recorder dumps
//	                                           (secmr-sim -flight-dir); with no
//	                                           subcommand, list dumps and state;
//	                                           dag, losses or evict analyse the
//	                                           newest dump whose reason names the
//	                                           analysis, else the newest dump
//
// All output is deterministic for a given input set: a fixed-seed
// simulator run produces a byte-identical DAG and byte-identical
// reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"secmr/internal/forensics"
	"secmr/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "dag":
		err = runDAG(args)
	case "path":
		err = runPath(args)
	case "losses":
		err = runLosses(args)
	case "evict":
		err = runEvict(args)
	case "flight":
		err = runFlight(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "secmr-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: secmr-trace <command> [flags] <trace.jsonl ...>

commands:
  dag     merged causal DAG, one line per event (byte-stable)
  path    -rule KEY: convergence critical path for one rule
  losses  [-grace N]: audit lost messages, attribute each to a fault cause
  evict   eviction forensics (activation, reports, evidence/quorum, quarantine)
  flight  DIR [dag|losses|evict]: read flight-recorder dumps`)
	os.Exit(2)
}

// load reads and merges the given JSONL trace files.
func load(paths []string) (*forensics.DAG, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no trace files given")
	}
	var traces [][]obs.Event
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		evs, err := obs.ReadJSONL(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		traces = append(traces, evs)
	}
	return forensics.Merge(traces...), nil
}

func runDAG(args []string) error {
	fs := flag.NewFlagSet("dag", flag.ExitOnError)
	fs.Parse(args)
	d, err := load(fs.Args())
	if err != nil {
		return err
	}
	return d.WriteText(os.Stdout)
}

func runPath(args []string) error {
	fs := flag.NewFlagSet("path", flag.ExitOnError)
	rule := fs.String("rule", "", "rule key to trace (as printed in the trace's rule field)")
	fs.Parse(args)
	if *rule == "" {
		return fmt.Errorf("path: -rule is required")
	}
	d, err := load(fs.Args())
	if err != nil {
		return err
	}
	path := d.CriticalPath(*rule)
	if len(path) == 0 {
		return fmt.Errorf("rule %q never reached a decision in this trace", *rule)
	}
	fmt.Printf("convergence critical path for %q (%d events):\n", *rule, len(path))
	for _, e := range path {
		fmt.Println("  " + forensics.FormatEvent(e))
	}
	return nil
}

func runLosses(args []string) error {
	fs := flag.NewFlagSet("losses", flag.ExitOnError)
	grace := fs.Int64("grace", 0, "in-flight grace horizon in steps (0 = default 8): sends this close to trace end are censored, not judged")
	fs.Parse(args)
	d, err := load(fs.Args())
	if err != nil {
		return err
	}
	rep := d.Losses(*grace)
	if err := rep.WriteText(os.Stdout); err != nil {
		return err
	}
	if n := len(rep.Unexplained()); n > 0 {
		return fmt.Errorf("%d unexplained message losses", n)
	}
	return nil
}

func runEvict(args []string) error {
	fs := flag.NewFlagSet("evict", flag.ExitOnError)
	fs.Parse(args)
	d, err := load(fs.Args())
	if err != nil {
		return err
	}
	return d.Evictions().WriteText(os.Stdout)
}

// runFlight reads black-box dumps: with just a directory it lists every
// dump and its state; with a trailing subcommand (dag, losses, evict)
// it runs that analysis over one dump's trace (see flightDump).
func runFlight(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("flight: directory required")
	}
	dir, rest := args[0], args[1:]
	dumps := obs.ListFlightDumps(dir)
	if len(dumps) == 0 {
		return fmt.Errorf("no flight dumps under %s", dir)
	}
	if len(rest) == 0 {
		for _, d := range dumps {
			fd, err := obs.ReadFlightDump(d)
			if err != nil {
				return err
			}
			fmt.Printf("%s: reason=%v events=%d stalled=%v\n",
				fd.Dir, fd.State["reason"], len(fd.Events), fd.State["stalled"])
		}
		return nil
	}
	fd, err := obs.ReadFlightDump(flightDump(dumps, rest[0]))
	if err != nil {
		return err
	}
	fmt.Printf("# dump %s (reason=%v)\n", fd.Dir, fd.State["reason"])
	d := forensics.Merge(fd.Events)
	switch rest[0] {
	case "dag":
		return d.WriteText(os.Stdout)
	case "losses":
		return d.Losses(0).WriteText(os.Stdout)
	case "evict":
		return d.Evictions().WriteText(os.Stdout)
	default:
		return fmt.Errorf("flight: unknown analysis %q (want dag, losses or evict)", rest[0])
	}
}

// flightDump picks the dump an analysis reads: the newest one whose
// reason names it (evict reads the newest *-evict dump, not the close
// dump written after it), otherwise the newest dump.
func flightDump(dumps []string, analysis string) string {
	for i := len(dumps) - 1; i >= 0; i-- {
		if strings.HasSuffix(filepath.Base(dumps[i]), "-"+analysis) {
			return dumps[i]
		}
	}
	return dumps[len(dumps)-1]
}
