// Command figures regenerates every table and figure of the paper's
// evaluation (Tables 1-3, Figures 8-14).
//
// Usage:
//
//	figures                  # everything at the default scale
//	figures -fig 8           # one figure
//	figures -table 3         # one table
//	figures -scale 0.05      # bigger runs (1.0 = paper-scale op counts)
//	figures -j 8             # run simulations on 8 workers
//	figures -cache .sweepcache  # reuse completed runs across invocations
//	figures -latency -only   # storage-server throughput-latency sweep
//	figures -cluster -only   # replicated-fleet quorum capacity and rejoin
//
// The simulations behind each figure execute through the internal/sweep
// engine: -j parallelizes them and -cache memoizes them on disk, and the
// rendered output is byte-identical regardless of either flag.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"specpersist/internal/cluster"
	"specpersist/internal/core"
	"specpersist/internal/multicore"
	"specpersist/internal/report"
	"specpersist/internal/service"
	"specpersist/internal/sweep"
	"specpersist/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var (
		fig       = flag.Int("fig", 0, "figure number to regenerate (8-14; 0 = all)")
		table     = flag.Int("table", 0, "table number to regenerate (1-3; 0 = all)")
		scale     = flag.Float64("scale", 0.02, "scale factor for Table 1 op counts (1.0 = paper)")
		seed      = flag.Int64("seed", 1, "operation stream seed")
		only      = flag.Bool("only", false, "with -fig/-table, print only that item")
		ablation  = flag.Bool("ablation", false, "also run the SP design-choice ablations")
		csv       = flag.Bool("csv", false, "emit CSV instead of text tables")
		chart     = flag.Bool("chart", false, "also render bar charts for the overhead figures")
		jobs      = flag.Int("j", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		cacheDir  = flag.String("cache", "", "result cache directory (empty = no cache)")
		progress  = flag.Bool("progress", false, "report per-simulation progress on stderr")
		stalls    = flag.Bool("stalls", false, "print per-benchmark stall attribution (Log+P+Sf and SP)")
		conflicts = flag.Bool("conflicts", false, "print the multi-core conflict-sensitivity table (real BLT probes)")
		latency   = flag.Bool("latency", false, "print the storage-server throughput-latency sweep (open-loop arrivals, group commit)")
		vstoreF   = flag.Bool("vstore", false, "print the per-op-WAL vs changeset-commit comparison (versioned COW store)")
		clusterF  = flag.Bool("cluster", false, "print the replicated-fleet figures (quorum capacity, RTT sensitivity, replica rejoin)")
		chaosF    = flag.Bool("chaos", false, "print the chaos-capacity figure (tail latency and completion under drops and partitions)")
	)
	flag.Parse()

	eng := &sweep.Engine{Workers: *jobs}
	if *cacheDir != "" {
		c, err := sweep.OpenCache(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		eng.Cache = c
	}
	if *progress {
		eng.Progress = os.Stderr
	}
	s := workload.NewSuite(*scale, *seed)
	s.Runner = eng
	// show prints one table in the selected format.
	show := func(tbl *report.Table) {
		if *csv {
			fmt.Printf("# %s\n%s\n", tbl.Title, tbl.CSV())
		} else {
			fmt.Println(tbl.String())
		}
	}
	// emit runs one item's work, simulations included, and reports its
	// wall time on stderr.
	emit := func(name string, f func()) {
		start := time.Now()
		f()
		fmt.Fprintf(os.Stderr, "[%s in %s]\n", name, time.Since(start).Round(time.Millisecond))
	}

	wantTable := func(n int) bool {
		return (*table == 0 && *fig == 0 && !*only) || *table == n
	}
	wantFig := func(n int) bool {
		return (*table == 0 && *fig == 0 && !*only) || *fig == n
	}

	if wantTable(1) {
		emit("table1", func() { show(workload.Table1Report()) })
	}
	if wantTable(2) {
		emit("table2", func() { show(workload.Table2Report()) })
	}
	if wantTable(3) {
		emit("table3", func() { show(workload.Table3Report()) })
	}
	if wantFig(8) {
		emit("fig8", func() {
			tbl := s.Fig8()
			show(tbl)
			if *chart {
				// One bar chart per variant column.
				for col := 1; col < len(tbl.Columns); col++ {
					fmt.Println(report.ChartFromTable(tbl, col, "%").String())
				}
			}
		})
	}
	if wantFig(9) {
		emit("fig9", func() { show(s.Fig9()) })
	}
	if wantFig(10) {
		emit("fig10", func() { show(s.Fig10()) })
	}
	if wantFig(11) {
		emit("fig11", func() { show(s.Fig11()) })
	}
	if wantFig(12) {
		emit("fig12", func() { show(s.Fig12()) })
	}
	if wantFig(13) {
		emit("fig13", func() {
			tbl := s.Fig13()
			show(tbl)
			if *chart {
				fmt.Println(report.ChartFromTable(tbl, 4, "%").String())
			}
		})
	}
	if wantFig(14) {
		emit("fig14", func() { show(s.Fig14()) })
	}
	if *ablation {
		emit("ablation", func() { show(s.Ablation()) })
		emit("ckpt-sweep", func() { show(s.CheckpointSweep()) })
		emit("stall-breakdown", func() { show(s.StallBreakdown()) })
		emit("log-footprint", func() { show(s.LogFootprint()) })
	}
	if *stalls {
		for _, b := range workload.Table1() {
			for _, v := range []core.Variant{core.VariantLogPSf, core.VariantSP} {
				emit("stalls", func() { show(s.StallAttribution(b, v)) })
			}
		}
	}
	if *conflicts {
		emit("conflicts", func() { show(multicore.ConflictTable(*seed)) })
	}
	if *latency {
		sc := service.DefaultSweepConfig()
		sc.Base.Seed = *seed
		sc.Workers = *jobs
		var points []service.SweepPoint
		emit("latency", func() {
			points = must(service.LatencySweep(sc))
			show(service.LatencyTable(points))
		})
		emit("latency-slo", func() {
			show(service.SLOTable(points))
			if *chart {
				for _, b := range sc.Batches {
					for _, n := range sc.Cores {
						fmt.Println(service.ThroughputLatencyCurve(points, b, n).String())
					}
				}
				midRate := sc.Rates[len(sc.Rates)/2]
				fmt.Println(service.LatencyCDFChart(points, midRate, sc.Batches[0], sc.Cores[0]).String())
			}
		})
	}
	if *vstoreF {
		sc := service.DefaultVstoreSweepConfig()
		sc.Base.Seed = *seed
		sc.Workers = *jobs
		var points []service.VstorePoint
		emit("vstore", func() {
			points = must(service.VstoreSweep(sc))
			show(service.VstoreTable(points))
		})
		emit("vstore-slo", func() { show(service.VstoreCapacityTable(points)) })
	}
	if *chaosF {
		sc := cluster.DefaultChaosSweepConfig()
		sc.Base.Seed = *seed
		sc.Workers = *jobs
		emit("cluster-chaos", func() { show(cluster.ChaosCapacityTable(must(cluster.ChaosSweep(sc)))) })
	}
	if *clusterF {
		clusterSweep := func(name string, sc cluster.SweepConfig) {
			sc.Base.Seed = *seed
			sc.Workers = *jobs
			emit(name, func() { show(cluster.CapacityTable(must(cluster.Sweep(sc)))) })
		}
		clusterSweep("cluster-capacity", cluster.DefaultSweepConfig())
		clusterSweep("cluster-rtt", cluster.DefaultRTTSweepConfig())
		rc := cluster.DefaultRejoinConfig()
		rc.Base.Seed = *seed
		rc.Workers = *jobs
		emit("cluster-rejoin", func() { fmt.Println(cluster.RejoinCurve(must(cluster.RejoinSweep(rc))).String()) })
	}
}

// must returns v, exiting on a sweep error.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}
