// Command rrserved hosts many tenants — each an independent streaming
// scheduler (internal/sched.Stream) with its own policy — behind the
// length-prefixed binary protocol of internal/serve (docs/SERVER.md).
//
// Usage:
//
//	rrserved                          # listen on 127.0.0.1:7145, in-memory only
//	rrserved -addr :7145 -ckpt state  # durable: checkpoints in state/, recovered
//	                                  # automatically on restart
//	rrserved -ckpt-adaptive           # pace checkpoints from measured costs
//	rrserved -round-interval 10ms     # pace rounds instead of applying eagerly
//	rrserved -allocator fifo          # legacy drain-in-scan-order cross-tenant order
//	rrserved -stats-every 10s         # periodic scheduling summary log line
//	rrserved -bdr                     # bounded-delay admission control: tenants may
//	                                  # reserve (rate, delay) pairs, checked against
//	                                  # the machine's supply bound before admission
//	rrserved -bdr -machine-rate 8 -shard-rate 1   # explicit capacity model
//
// Durable mode uses the group-commit checkpoint log (docs/CHECKPOINT.md):
// all tenants' checkpoints are appended to shared segment files and one
// background fsync per -ckpt-commit-interval covers every append in the
// window, so checkpoint cost stays flat as tenant counts grow.
//
// Which backlogged tenant a worker serves next is the cross-tenant
// allocator's decision (-allocator, -alloc-quantum, -alloc-escalation);
// see docs/SCHEDULING.md for the model and tuning guidance.
//
// With -bdr the server additionally runs bounded-delay-reservation
// admission control (docs/SCHEDULING.md "Admission"): a tenant may
// declare a (rate, delay) reservation at open, the server checks it
// against the shard's residual supply bound and either guarantees it —
// the fractional-share controller clamps the tenant's scheduling weight
// and per-pass budget so the guarantee holds under any competing load —
// or rejects the open with a typed admission error carrying the
// residual capacity. -machine-rate/-machine-delay and
// -shard-rate/-shard-delay set the capacity model; the defaults derive
// a machine rate equal to the shard count split evenly across shards.
//
// SIGTERM or SIGINT drains gracefully: the server stops admitting work,
// applies every queued round tick, appends a final checkpoint per tenant
// and then exits; a second signal forces immediate exit.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7145", "TCP listen address")
		ckptDir      = flag.String("ckpt", "", "checkpoint directory (empty = no durability)")
		ckptEvery    = flag.Int("checkpoint-every", 64, "rounds between periodic per-tenant checkpoints")
		ckptCommit   = flag.Duration("ckpt-commit-interval", 0, "checkpoint log group-commit fsync interval (0 = default 2ms)")
		ckptSegBytes = flag.Int("ckpt-segment-bytes", 0, "log segment size before rotation (0 = default 4MiB)")
		ckptAdaptive = flag.Bool("ckpt-adaptive", false, "pace checkpoints adaptively from measured snapshot/apply costs")
		ckptPaceMin  = flag.Int("ckpt-pace-min", 0, "adaptive pacing floor in rounds (0 = default 1)")
		ckptPaceMax  = flag.Int("ckpt-pace-max", 0, "adaptive pacing ceiling in rounds (0 = default 1024)")
		interval     = flag.Duration("round-interval", 0, "pace round application (0 = apply eagerly)")
		shards       = flag.Int("shards", 0, "round-engine worker shards (0 = GOMAXPROCS, capped at 16)")
		maxTen       = flag.Int("max-tenants", 0, "live tenant limit (0 = default 4096)")
		queueCap     = flag.Int("queue-cap", 0, "default per-tenant queue cap (0 = default 64)")
		connWin      = flag.Int("conn-window", 0, "staged responses per connection before the reader blocks (0 = default 256)")
		alloc        = flag.String("allocator", "", "cross-tenant allocator: wdrr or fifo (empty = wdrr)")
		allocQ       = flag.Int("alloc-quantum", 0, "wdrr rounds per pick per unit weight (0 = default 8)")
		allocEsc     = flag.Float64("alloc-escalation", 0, "delay factor that escalates a tenant (0 = default 0.5, negative disables)")
		statsInt     = flag.Duration("stats-every", 0, "log a scheduling summary at this interval (0 = off)")
		bdrOn        = flag.Bool("bdr", false, "enable bounded-delay-reservation admission control")
		machineRate  = flag.Float64("machine-rate", 0, "BDR machine service rate in rounds per pass (0 = shard count)")
		machineDelay = flag.Float64("machine-delay", 0, "BDR machine-level delay bound in rounds")
		shardRate    = flag.Float64("shard-rate", 0, "BDR per-shard service rate (0 = machine-rate/shards)")
		shardDelay   = flag.Float64("shard-delay", 0, "BDR per-shard delay bound (0 = machine-delay+1)")
		quiet        = flag.Bool("quiet", false, "suppress operational log lines")
	)
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv, err := serve.NewServer(serve.Config{
		Addr:               *addr,
		CheckpointDir:      *ckptDir,
		CheckpointEvery:    *ckptEvery,
		CkptCommitInterval: *ckptCommit,
		CkptSegmentBytes:   *ckptSegBytes,
		CkptAdaptive:       *ckptAdaptive,
		CkptPaceMin:        *ckptPaceMin,
		CkptPaceMax:        *ckptPaceMax,
		RoundInterval:      *interval,
		Shards:             *shards,
		MaxTenants:         *maxTen,
		DefaultQueueCap:    *queueCap,
		ConnWindow:         *connWin,
		Allocator:          *alloc,
		AllocQuantum:       *allocQ,
		AllocEscalation:    *allocEsc,
		BDR:                *bdrOn,
		MachineRate:        *machineRate,
		MachineDelay:       *machineDelay,
		ShardRate:          *shardRate,
		ShardDelay:         *shardDelay,
		Logf:               logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	logf("rrserved: listening on %s (%d tenants recovered)", srv.Addr(), srv.NumTenants())

	// The logger goroutine is joined to the server's worker group, so it
	// stops — and cannot log — once Shutdown begins (the old inline
	// ticker goroutine leaked past shutdown and could log after close).
	srv.StartStatsLogger(*statsInt)

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		logf("rrserved: %v: draining (again to force exit)", sig)
		go func() {
			<-sigs
			logf("rrserved: forced exit")
			os.Exit(1)
		}()
		start := time.Now()
		if err := srv.Shutdown(); err != nil {
			logf("rrserved: drain: %v", err)
			os.Exit(1)
		}
		logf("rrserved: drained in %v", time.Since(start).Round(time.Millisecond))
	}()

	if err := srv.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Serve returns once the listener closes; wait for the drain started
	// by the signal handler to finish flushing before exiting.
	_ = srv.Shutdown()
}
