// Command secmr-sim runs one privacy-preserving mining simulation with
// full control over every knob — the interactive counterpart of the
// figure harness. It prints a convergence table (step, scans, recall,
// precision) and the final rule count.
//
// Usage:
//
//	secmr-sim -alg secure -resources 64 -local 1000 -k 10 \
//	          -minfreq 0.02 -minconf 0.6 -steps 4000
//
// Chaos flags exercise the fault injector against the same run. A
// crash entry prefixed with ! is a crash with amnesia: the node's
// in-memory state is wiped, and its restart succeeds only when a
// -persist-dir journal exists to rebuild it from:
//
//	secmr-sim -resources 16 -k 3 -drop 0.1 -dup 0.05 -jitter 2 \
//	          -crash '!1@200-320' -partition 100-400:0,1,2|3,4,5 \
//	          -persist-dir /tmp/secmr-journal -snapshot-every 200
//
// Observability flags expose the run live and record it:
//
//	secmr-sim -obs-addr 127.0.0.1:9477 -obs-hold 30s \
//	          -trace-out run.jsonl -trace-types grant_send,vote_fresh
//
// While running (and for -obs-hold afterwards) the HTTP endpoint
// serves /metrics (Prometheus), /healthz (step/recall/stalls JSON),
// /trace (filtered JSONL) and /debug/pprof. A final run summary —
// quality, fault damage and the busiest protocol counters — always
// goes to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"secmr"
	"secmr/internal/metrics"
	"secmr/internal/obs"
	"secmr/internal/quest"
)

func main() {
	var (
		alg       = flag.String("alg", "secure", "algorithm: secure, k-private, majority-rule")
		topo      = flag.String("topo", "ba", "topology: ba, waxman, tree, line")
		resources = flag.Int("resources", 32, "number of resources")
		local     = flag.Int("local", 500, "transactions per local database")
		k         = flag.Int("k", 10, "privacy parameter")
		preset    = flag.String("preset", "T5I2", "quest preset for the synthetic database")
		items     = flag.Int("items", 50, "item universe size (0 = preset default of 1000)")
		patterns  = flag.Int("patterns", 20, "pattern table size (0 = preset default of 2000)")
		minFreq   = flag.Float64("minfreq", 0.1, "MinFreq")
		minConf   = flag.Float64("minconf", 0.6, "MinConf")
		budget    = flag.Int("budget", 100, "transactions scanned per step")
		maxRule   = flag.Int("maxrule", 4, "cap on rule size (0 = unlimited)")
		steps     = flag.Int("steps", 3000, "maximum simulation steps")
		sample    = flag.Int("sample", 50, "sampling period for the convergence table")
		paillier  = flag.Int("paillier", 0, "Paillier modulus bits (0 = plain stand-in scheme)")
		crypto    = flag.String("crypto", "", "crypto backend: plain, paillier or shamir (empty = plain, or paillier when -paillier is set); shamir messages carry every share, so any broker or link observer can open them")
		seed      = flag.Int64("seed", 1, "seed")
		csvPath   = flag.String("csv", "", "also write the convergence series as CSV to this file")

		// Chaos knobs (see internal/faults): any non-zero setting arms
		// the injector and the protocol's loss-recovery timers.
		drop      = flag.Float64("drop", 0, "per-message drop probability")
		dup       = flag.Float64("dup", 0, "per-message duplication probability")
		jitter    = flag.Int("jitter", 0, "max extra delivery delay (steps, FIFO-preserving)")
		crash     = flag.String("crash", "", "crash schedule, e.g. 1@200-320,3@500 (node@down-up; no -up = stays down)")
		partition = flag.String("partition", "", "partition schedule, e.g. 100-400:0,1,2|3,4,5 (heals at the end step)")
		faultSeed = flag.Int64("fault-seed", 0, "fault injector seed (0 = -seed)")

		// Byzantine knobs (see internal/attack and DESIGN.md §10): plant
		// live adversaries inside resources and, with quarantine on, let
		// the honest majority evict them and keep mining.
		adversary   = flag.String("adversary", "", "live adversaries, e.g. 3:forge-share,7:equivocate@200 (node:kind[:victim][@from]; kinds: double-count, omit, isolate, replay, garbage, forge-share, equivocate, random)")
		quarantine  = flag.Bool("quarantine", false, "evict corroborated cheaters and keep mining instead of halting on the first report")
		evictQuorum = flag.Int("evict-quorum", 0, "independent accusers required to evict without cryptographic evidence (0 = default 2; setting it implies -quarantine)")

		// Durability knobs (see internal/persist and DESIGN.md §9):
		// a journal directory arms per-resource snapshot+WAL persistence
		// and the crash-with-amnesia recovery path.
		persistDir    = flag.String("persist-dir", "", "journal directory for snapshot+WAL durability (secure algorithm only)")
		snapshotEvery = flag.Int("snapshot-every", 0, "logged events between snapshots (0 = persist default)")
		fsyncEvery    = flag.Int("fsync-every", 0, "WAL appends coalesced per fsync (0 = persist default)")

		// Observability knobs (see internal/obs): telemetry is always
		// collected (nil-safe instruments make it nearly free); these
		// flags expose it.
		obsAddr    = flag.String("obs-addr", "", "serve /metrics, /healthz, /trace and pprof on this address (e.g. 127.0.0.1:9477)")
		obsHold    = flag.Duration("obs-hold", 0, "keep the introspection server up this long after the run ends")
		traceOut   = flag.String("trace-out", "", "stream the event trace as JSONL to this file")
		traceTypes = flag.String("trace-types", "", "comma-separated event types to trace (empty = all implicit types; crypto-op must be listed explicitly)")
		stallAfter = flag.Int("stall-patience", 0, "quality samples without recall improvement before a resource is flagged stalled (0 = default 8)")
		flightDir  = flag.String("flight-dir", "", "black-box flight recorder directory: dump trace+metrics+watchdog state there on stalls, evictions and recoveries (readable with secmr-trace flight)")
	)
	flag.Parse()

	// Build the synthetic global database: the preset fixes the T/I
	// shape; -items/-patterns rescale the universe for small runs.
	params, err := quest.Preset(*preset, *resources**local, *seed)
	if err != nil {
		fatal(err)
	}
	if *items > 0 {
		params.NumItems = *items
	}
	if *patterns > 0 {
		params.NumPatterns = *patterns
	}
	db := secmr.GenerateQuestWith(params)

	faultCfg, err := buildFaults(*drop, *dup, *jitter, *crash, *partition, *faultSeed, *seed)
	if err != nil {
		fatal(err)
	}
	advSpecs, err := buildAdversaries(*adversary)
	if err != nil {
		fatal(err)
	}

	// Telemetry is always on: the instruments are atomic-cheap and the
	// final stderr summary reads them. The trace ring only leaves the
	// process through -trace-out or /trace.
	tel := secmr.NewTelemetry()
	if *traceTypes != "" {
		var f secmr.TraceFilter
		for _, ty := range splitList(*traceTypes) {
			f.Types = append(f.Types, secmr.TraceEventType(ty))
		}
		tel.Tr.SetFilter(f)
	}
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		tel.Tr.SetSink(f)
	}

	var persistCfg *secmr.PersistConfig
	if *persistDir != "" {
		persistCfg = &secmr.PersistConfig{Dir: *persistDir,
			SnapshotEvery: *snapshotEvery, FsyncEvery: *fsyncEvery}
	}

	grid, err := secmr.NewGrid(db, secmr.GridConfig{
		Algorithm: secmr.Algorithm(*alg), Topology: secmr.Topology(*topo),
		Resources: *resources, K: *k,
		MinFreq: *minFreq, MinConf: *minConf,
		ScanBudget: *budget, MaxRuleItems: *maxRule,
		Crypto:       secmr.Crypto(*crypto),
		PaillierBits: *paillier, Seed: *seed,
		Faults: faultCfg, Persist: persistCfg,
		Adversaries: advSpecs,
		Quarantine: secmr.QuarantineConfig{
			Enabled:     *quarantine || *evictQuorum > 0,
			EvictQuorum: *evictQuorum,
		},
		Telemetry: tel, StallPatience: *stallAfter, FlightDir: *flightDir,
	})
	if err != nil {
		fatal(err)
	}
	defer grid.Close()

	var server *secmr.IntrospectionServer
	if *obsAddr != "" {
		server, err = grid.ServeIntrospection(*obsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# introspection: http://%s/metrics /healthz /trace /debug/pprof\n", server.Addr())
	}

	fmt.Printf("# %s over %s topology: %d resources × %d transactions, k=%d, |R[DB]|=%d\n",
		*alg, *topo, *resources, *local, *k, len(grid.Truth()))
	fmt.Printf("%-10s %-10s %-10s %-10s\n", "step", "scans", "recall", "precision")
	series := &metrics.Series{Label: *alg}
	for s := 0; s <= *steps; s += *sample {
		rec, prec := grid.SampleQuality()
		scans := float64(s) * float64(*budget) / float64(*local)
		fmt.Printf("%-10d %-10.2f %-10.3f %-10.3f\n", s, scans, rec, prec)
		series.Add(metrics.Point{Step: int64(s), Scans: scans, Recall: rec, Precision: prec})
		// Stop at the last sample -steps reaches: no step runs past it, so
		// the final line reads the state the table ends on.
		if rec >= 0.99 && prec >= 0.99 || s+*sample > *steps {
			break
		}
		// The facade processes evictions — and cuts flight-recorder
		// dumps — between Step calls, so with the recorder armed step
		// in fine chunks to land each dump while the incident is still
		// inside the bounded trace ring.
		chunk := *sample
		if *flightDir != "" && chunk > 10 {
			chunk = 10
		}
		for done := 0; done < *sample; done += chunk {
			n := chunk
			if rest := *sample - done; rest < n {
				n = rest
			}
			grid.Step(n)
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := metrics.WriteCSV(f, series); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("# series written to %s\n", *csvPath)
	}
	rec, prec := grid.SampleQuality()
	fmt.Printf("# final: recall=%.3f precision=%.3f rules@resource0=%d reports=%d evicted=%d\n",
		rec, prec, len(grid.Output(0)), len(grid.Reports()), len(grid.Evictions()))
	if faultCfg != nil {
		st := grid.FaultStats()
		fmt.Printf("# faults: dropped=%d duplicated=%d delayed=%d crashDrops=%d cutDrops=%d amnesia=%d recoveries=%d\n",
			st.Dropped, st.Duplicated, st.Delayed, st.CrashDrops, st.CutDrops, st.AmnesiaWipes, grid.Recoveries())
	}

	summarize(os.Stderr, grid, rec, prec, faultCfg != nil)
	if traceFile != nil {
		if err := tel.Tr.Flush(); err != nil {
			fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events streamed to %s\n",
			int64(tel.Tr.Len())+tel.Tr.Evicted(), *traceOut)
	}
	if server != nil {
		if *obsHold > 0 {
			fmt.Fprintf(os.Stderr, "holding introspection server for %v\n", *obsHold)
			time.Sleep(*obsHold)
		}
		server.Close()
	}
}

// summarize prints the end-of-run report to w: quality, fault damage,
// watchdog verdict and the busiest protocol counters.
func summarize(w *os.File, grid *secmr.Grid, rec, prec float64, faulty bool) {
	fmt.Fprintf(w, "--- run summary ---\n")
	fmt.Fprintf(w, "steps=%d recall=%.3f precision=%.3f reports=%d\n",
		grid.Steps(), rec, prec, len(grid.Reports()))
	st := grid.Stats()
	fmt.Fprintf(w, "protocol: messages=%d bytes=%d sfes=%d fresh=%d gated=%d violations=%d\n",
		st.MessagesSent, st.BytesSent, st.SFEs, st.Fresh, st.Gated, st.Violations)
	if faulty {
		fs := grid.FaultStats()
		fmt.Fprintf(w, "faults: dropped=%d duplicated=%d delayed=%d crashDrops=%d cutDrops=%d amnesia=%d recoveries=%d\n",
			fs.Dropped, fs.Duplicated, fs.Delayed, fs.CrashDrops, fs.CutDrops, fs.AmnesiaWipes, grid.Recoveries())
	}
	if ev := grid.Evictions(); len(ev) > 0 {
		fmt.Fprintf(w, "quarantine: evicted=%v\n", ev)
		for _, rep := range grid.Reports() {
			fmt.Fprintf(w, "  %s\n", rep.String())
		}
	}
	if stalled := grid.Stalled(); len(stalled) > 0 {
		fmt.Fprintf(w, "stalled resources (recall flat below target): %v\n", stalled)
	}
	if tel := grid.Telemetry(); tel != nil {
		points := tel.Reg.Snapshot()
		var counters []obs.MetricPoint
		for _, p := range points {
			if p.Kind == "counter" && p.Value > 0 {
				counters = append(counters, p)
			}
		}
		sort.Slice(counters, func(i, j int) bool {
			if counters[i].Value != counters[j].Value {
				return counters[i].Value > counters[j].Value
			}
			if counters[i].Name != counters[j].Name {
				return counters[i].Name < counters[j].Name
			}
			return counters[i].Labels < counters[j].Labels
		})
		if len(counters) > 8 {
			counters = counters[:8]
		}
		if len(counters) > 0 {
			fmt.Fprintf(w, "top counters:\n")
			for _, p := range counters {
				name := p.Name
				if p.Labels != "" {
					name += "{" + p.Labels + "}"
				}
				fmt.Fprintf(w, "  %-48s %.0f\n", name, p.Value)
			}
		}
	}
}

// buildFaults assembles the injector config from the chaos flags, or
// returns nil when none are set.
func buildFaults(drop, dup float64, jitter int, crash, partition string, faultSeed, seed int64) (*secmr.FaultConfig, error) {
	if drop == 0 && dup == 0 && jitter == 0 && crash == "" && partition == "" {
		return nil, nil
	}
	if faultSeed == 0 {
		faultSeed = seed
	}
	cfg := &secmr.FaultConfig{Seed: faultSeed, DropProb: drop, DupProb: dup, DelayJitter: jitter}
	for _, spec := range splitList(crash) {
		amnesia := strings.HasPrefix(spec, "!")
		spec = strings.TrimPrefix(spec, "!")
		node, at, ok := strings.Cut(spec, "@")
		if !ok {
			return nil, fmt.Errorf("bad -crash entry %q (want node@down or node@down-up, ! prefix = amnesia)", spec)
		}
		id, err := strconv.Atoi(node)
		if err != nil {
			return nil, fmt.Errorf("bad -crash node in %q: %v", spec, err)
		}
		down, up, hasUp := strings.Cut(at, "-")
		downAt, err := strconv.ParseInt(down, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -crash step in %q: %v", spec, err)
		}
		cfg.Schedule = append(cfg.Schedule, secmr.FaultEvent{At: downAt, Crash: []int{id}, Amnesia: amnesia})
		if hasUp {
			upAt, err := strconv.ParseInt(up, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -crash restart step in %q: %v", spec, err)
			}
			cfg.Schedule = append(cfg.Schedule, secmr.FaultEvent{At: upAt, Restart: []int{id}})
		}
	}
	if partition != "" {
		window, groupSpec, ok := strings.Cut(partition, ":")
		if !ok {
			return nil, fmt.Errorf("bad -partition %q (want start-end:ids|ids)", partition)
		}
		start, end, ok := strings.Cut(window, "-")
		if !ok {
			return nil, fmt.Errorf("bad -partition window in %q (want start-end)", partition)
		}
		startAt, err := strconv.ParseInt(start, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -partition start in %q: %v", partition, err)
		}
		endAt, err := strconv.ParseInt(end, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -partition end in %q: %v", partition, err)
		}
		var groups [][]int
		for _, g := range strings.Split(groupSpec, "|") {
			var ids []int
			for _, s := range splitList(g) {
				id, err := strconv.Atoi(s)
				if err != nil {
					return nil, fmt.Errorf("bad -partition id %q: %v", s, err)
				}
				ids = append(ids, id)
			}
			groups = append(groups, ids)
		}
		if len(groups) < 2 {
			return nil, fmt.Errorf("-partition needs at least two |-separated groups")
		}
		cfg.Schedule = append(cfg.Schedule,
			secmr.FaultEvent{At: startAt, Partition: groups},
			secmr.FaultEvent{At: endAt, Heal: true})
	}
	return cfg, nil
}

// buildAdversaries parses the -adversary list. Each entry is
// node:kind[:victim][@from] — e.g. "3:forge-share", "5:replay:2@400".
func buildAdversaries(spec string) ([]secmr.AdversarySpec, error) {
	var out []secmr.AdversarySpec
	for _, entry := range splitList(spec) {
		body, fromStr, hasFrom := strings.Cut(entry, "@")
		parts := strings.Split(body, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("bad -adversary entry %q (want node:kind[:victim][@from])", entry)
		}
		node, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("bad -adversary node in %q: %v", entry, err)
		}
		a := secmr.AdversarySpec{Node: node, Kind: parts[1]}
		if len(parts) == 3 {
			if a.Victim, err = strconv.Atoi(parts[2]); err != nil {
				return nil, fmt.Errorf("bad -adversary victim in %q: %v", entry, err)
			}
		}
		if hasFrom {
			if a.From, err = strconv.ParseInt(fromStr, 10, 64); err != nil {
				return nil, fmt.Errorf("bad -adversary start step in %q: %v", entry, err)
			}
		}
		out = append(out, a)
	}
	return out, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "secmr-sim:", err)
	os.Exit(1)
}
