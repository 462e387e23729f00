// Command rrload drives an rrserved server with many concurrent
// tenants, each replaying an independent per-tenant variant of a named
// workload family (internal/workload), and reports throughput, shed
// rates and per-submit latency quantiles. With -verify it replays every
// trace locally afterwards and requires the server's final results to
// be bit-identical — the end-to-end check that the server lost and
// duplicated nothing.
//
// Usage:
//
//	rrload -addr 127.0.0.1:7145                  # 64 tenants, router workload
//	rrload -tenants 128 -rounds 2048 -rate 500   # paced at 500 rounds/s/tenant
//	rrload -policy edf -workload bursty -verify  # verify bit-identical results
//	rrload -pipeline 64 -batch 16                # pipelined + batched submits
//	rrload -res-rate 0.01 -res-delay 32          # BDR reservation per tenant (needs
//	                                             # rrserved -bdr; rejected reservations
//	                                             # fall back to best-effort and are counted)
//	rrload -json                                 # machine-readable report
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7145", "rrserved address")
		tenants  = flag.Int("tenants", 64, "concurrent tenants")
		wl       = flag.String("workload", "router", "workload family (see internal/workload)")
		policy   = flag.String("policy", "dlruedf", "tenant policy spec")
		n        = flag.Int("n", 8, "machines per tenant stream")
		delta    = flag.Int("delta", 0, "reconfiguration delay (0 = workload default)")
		rounds   = flag.Int("rounds", 1024, "trace length per tenant")
		load     = flag.Float64("load", 0, "offered load parameter (0 = workload default)")
		seed     = flag.Uint64("seed", 1, "workload seed basis")
		queueCap = flag.Int("queue-cap", 0, "per-tenant queue cap (0 = server default)")
		rate     = flag.Float64("rate", 0, "target rounds/sec per tenant (0 = unpaced)")
		pipeline = flag.Int("pipeline", 0, "submit frames in flight per tenant (0/1 = strict request/response)")
		batch    = flag.Int("batch", 1, "consecutive rounds per submit frame")
		resRate  = flag.Float64("res-rate", 0, "BDR reservation rate per tenant (0 = best-effort)")
		resDelay = flag.Float64("res-delay", 0, "BDR reservation delay bound in rounds")
		verify   = flag.Bool("verify", false, "verify results bit-identical against local replays")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON")
		quiet    = flag.Bool("quiet", false, "suppress progress lines")
	)
	flag.Parse()

	logf := log.Printf
	if *quiet || *jsonOut {
		logf = func(string, ...any) {}
	}
	rep, err := serve.RunLoad(serve.LoadConfig{
		Addr:     *addr,
		Tenants:  *tenants,
		Workload: *wl,
		Params:   workload.Params{Seed: *seed, Delta: *delta, Rounds: *rounds, Load: *load},
		Policy:   *policy,
		N:        *n,
		QueueCap: *queueCap,
		Rate:     *rate,
		Pipeline: *pipeline,
		Batch:    *batch,
		ResRate:  *resRate,
		ResDelay: *resDelay,
		Verify:   *verify,
		Logf:     logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("tenants %d  rounds/tenant %d  elapsed %.2fs\n",
			rep.Tenants, rep.RoundsPerTenant, rep.ElapsedSec)
		if rep.Pipeline > 1 || rep.Batch > 1 {
			fmt.Printf("pipeline window %d  batch %d\n", rep.Pipeline, rep.Batch)
		}
		fmt.Printf("rounds sent %d (%.0f/s aggregate, target %.0f/s/tenant)  jobs %d\n",
			rep.RoundsSent, rep.AchievedRate, rep.TargetRate, rep.JobsSent)
		fmt.Printf("sheds by cause: ring %d  admission %d  draining %d  |  resumes %d  reconnects %d\n",
			rep.Overloads, rep.AdmissionRejects, rep.DrainingRejects, rep.Resumes, rep.Reconnects)
		fmt.Printf("submit latency ms  p50 %.3f  p90 %.3f  p99 %.3f  max %.3f\n",
			rep.Latency.P50, rep.Latency.P90, rep.Latency.P99, rep.Latency.Max)
		fmt.Printf("executed %d  dropped %d  reconfigs %d  cost %d+%d\n",
			rep.Executed, rep.Dropped, rep.Reconfigs, rep.CostReconfig, rep.CostDrop)
		if rep.WorstDelayTenant != "" {
			fmt.Printf("worst delay factor %.3f (%s)  service share min %.4f  max %.4f\n",
				rep.WorstDelayFactor, rep.WorstDelayTenant, rep.ServiceShareMin, rep.ServiceShareMax)
		}
	}
	if *verify {
		if len(rep.Mismatches) > 0 {
			fmt.Fprintf(os.Stderr, "verify FAILED: %d tenants differ from local replay: %v\n",
				len(rep.Mismatches), rep.Mismatches)
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Printf("verify OK: all %d tenant results bit-identical to local replay\n", rep.Tenants)
		}
	}
}
