// Command crashtest drives the internal/fault crash-consistency engine: it
// crashes transactional operations on the benchmark structures at injected
// persistence events (exhaustively or randomized), optionally tears cache
// lines at 8-byte granularity and re-crashes inside recovery, verifies
// write-ahead-log recovery restores an atomic state, and delta-minimizes any
// failing trial into a JSON reproducer.
//
// Usage:
//
//	crashtest -exhaustive -torn -recrash            # full safety campaign
//	crashtest -variant Log+P -expect-violations     # negative control
//	crashtest -exhaustive -json > report.json       # machine-readable report
//	crashtest -replay plan.json                     # replay one reproducer
//	crashtest -spdiff                               # SP rollback differential
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"specpersist/internal/core"
	"specpersist/internal/fault"
	"specpersist/internal/obs"
	"specpersist/internal/pstruct"
)

// aliases maps user-friendly structure names onto pstruct.Names() entries.
var aliases = map[string]string{
	"list": "LL", "ll": "LL",
	"hm": "HM", "hash": "HM", "hashmap": "HM",
	"gh": "GH", "graph": "GH",
	"ss": "SS", "strings": "SS",
	"at": "AT", "avl": "AT",
	"bt": "BT", "btree": "BT",
	"rt": "RT", "rbtree": "RT",
	"vt": "VT", "vstore": "VT", "vtree": "VT",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("crashtest: ")
	// Counts parse as unsigned, so a negative value is a flag error.
	var (
		structuresF = flag.String("structures", "", "comma-separated structures (default: all); aliases like list,hash,avl work")
		variantF    = flag.String("variant", "Log+P+Sf", "software variant (Log, Log+P, Log+P+Sf)")
		seed        = flag.Int64("seed", 1, "campaign seed")
		warmup      = flag.Uint("warmup", 60, "warmup operations before the probed ops")
		ops         = flag.Uint("ops", 3, "operations probed per structure")
		exhaustive  = flag.Bool("exhaustive", false, "enumerate every crash point (counting pass first)")
		trials      = flag.Uint("trials", 200, "randomized-mode trials per structure")
		torn        = flag.Bool("torn", false, "tear lines at 8-byte chunks in sampled trials")
		recrash     = flag.Bool("recrash", false, "re-crash at every persistence event inside recovery")
		samples     = flag.Uint("samples", 1, "randomized fate sets per crash point besides the strict crash")
		workers     = flag.Uint("workers", 0, "worker pool size (0 = one per CPU)")
		maxViol     = flag.Uint("max-violations", 3, "violation details kept per structure")
		jsonOut     = flag.Bool("json", false, "emit the machine-readable report as JSON on stdout")
		replayFile  = flag.String("replay", "", "replay one plan from a JSON reproducer file and exit")
		spdiff      = flag.Bool("spdiff", false, "run the SP rollback differential instead of a crash campaign")
		probeMode   = flag.String("probe", "forced", "spdiff probe source: forced (harness-injected) or real (2-core adversary via internal/multicore)")
		expectViol  = flag.Bool("expect-violations", false, "negative control: exit nonzero unless violations are found")
		unsafeFlip  = flag.Bool("vstore-unsafe-flip", false, "negative control for structure VT: commit flips the root selector before the changeset flush behind one shared barrier")
	)
	flag.Parse()

	if *replayFile != "" {
		replay(*replayFile, *jsonOut)
		return
	}

	structures, err := parseStructures(*structuresF)
	if err != nil {
		log.Fatal(err)
	}

	if *spdiff {
		runSPDiff(structures, *probeMode, *seed, int(*warmup), int(*ops))
		return
	}

	v, err := core.ParseVariant(*variantF)
	if err != nil || !v.Transactional() {
		log.Fatalf("variant must be Log, Log+P or Log+P+Sf")
	}

	eng := &fault.Engine{
		Workers:       int(*workers),
		Samples:       int(*samples),
		Torn:          *torn,
		Recrash:       *recrash,
		Shrink:        true,
		MaxViolations: int(*maxViol),
	}
	reg := obs.NewRegistry()
	eng.Register(reg)

	rep, err := eng.Run(fault.Campaign{
		Structures:       structures,
		Variant:          v,
		Seed:             *seed,
		Warmup:           int(*warmup),
		Ops:              int(*ops),
		Exhaustive:       *exhaustive,
		Trials:           int(*trials),
		VstoreUnsafeFlip: *unsafeFlip,
	})
	if err != nil {
		log.Fatal(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
	} else {
		printReport(rep)
	}

	switch {
	case *expectViol && rep.Violations == 0:
		log.Fatalf("FAIL: expected violations under %s but found none (the checker may be blind)", v)
	case !*expectViol && rep.Violations > 0 && v == core.VariantLogPSf:
		log.Fatalf("FAIL: %d violations under the fully fenced variant", rep.Violations)
	}
}

func parseStructures(csv string) ([]string, error) {
	if csv == "" {
		return nil, nil // engine defaults to pstruct.Names()
	}
	known := make(map[string]bool)
	for _, n := range pstruct.AllNames() {
		known[n] = true
	}
	var out []string
	for _, tok := range strings.Split(csv, ",") {
		name := strings.TrimSpace(tok)
		if name == "" {
			continue
		}
		if canon, ok := aliases[strings.ToLower(name)]; ok {
			name = canon
		} else {
			name = strings.ToUpper(name)
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown structure %q (have %s)", tok, strings.Join(pstruct.AllNames(), ","))
		}
		out = append(out, name)
	}
	return out, nil
}

func replay(path string, jsonOut bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	var p fault.Plan
	if err := json.Unmarshal(data, &p); err != nil {
		log.Fatalf("parsing %s: %v", path, err)
	}
	out, err := fault.Run(p)
	if err != nil {
		log.Fatal(err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("%s %s op=%d crash=%d: crashed=%v events=%d recovery_events=%d torn=%d\n",
			p.Structure, p.Variant, p.Op, p.CrashIndex,
			out.Crashed, out.Events, out.RecoveryEvents, out.TornLines)
		if out.Failed() {
			fmt.Printf("VIOLATION: %s\n", out.Violation)
		} else {
			fmt.Println("recovered atomically")
		}
	}
	if out.Failed() {
		os.Exit(1)
	}
}

func runSPDiff(structures []string, probeMode string, seed int64, warmup, ops int) {
	diff := fault.SPDifferential
	switch probeMode {
	case "forced":
	case "real":
		diff = fault.SPDifferentialReal
	default:
		log.Fatalf("-probe must be forced or real, got %q", probeMode)
	}
	if len(structures) == 0 {
		structures = pstruct.Names()
	}
	failed := 0
	for _, s := range structures {
		if err := diff(s, seed, warmup, ops); err != nil {
			fmt.Printf("%-3s SP differential (%s probe): FAIL: %v\n", s, probeMode, err)
			failed++
		} else {
			fmt.Printf("%-3s SP differential (%s probe): OK (rollback stream matches non-speculative machine)\n", s, probeMode)
		}
	}
	if failed > 0 {
		log.Fatalf("FAIL: %d structures diverged after speculative rollback", failed)
	}
}

func printReport(rep fault.Report) {
	mode := "randomized"
	if rep.Exhaustive {
		mode = "exhaustive"
	}
	for _, sr := range rep.Structures {
		status := "OK"
		if sr.Violations > 0 {
			status = fmt.Sprintf("%d ATOMICITY VIOLATIONS", sr.Violations)
		}
		extra := ""
		if sr.RecrashTrials > 0 {
			extra = fmt.Sprintf(" (+%d re-crash)", sr.RecrashTrials)
		}
		fmt.Printf("%-3s %-9s %5d trials%s %5d crashes %4d torn lines: %s\n",
			sr.Structure, rep.Variant, sr.Trials, extra, sr.Crashes, sr.TornLines, status)
		for _, d := range sr.Details {
			plan := d.Plan
			if d.Shrunk != nil {
				plan = *d.Shrunk
			}
			data, _ := json.Marshal(plan)
			det := "deterministic"
			if !d.Deterministic {
				det = "NOT deterministic"
			}
			fmt.Printf("    violation (%s, shrunk in %d steps): %s\n    reproducer: %s\n",
				det, d.ShrinkSteps, d.Violation, data)
		}
	}
	if rep.Violations > 0 {
		fmt.Printf("\n%d violations under %s (%s mode)", rep.Violations, rep.Variant, mode)
		if rep.Variant != core.VariantLogPSf.String() {
			fmt.Printf(" — this is the paper's point: only Log+P+Sf orders persists correctly")
		}
		fmt.Println()
	} else {
		fmt.Printf("\nall structures recovered atomically from every injected crash (%s, %s, %d trials)\n",
			rep.Variant, mode, rep.Trials)
	}
}
