// Command perfbench is the repository's open-loop benchmark. It runs the
// serving stack in-process — serve.Server, or two BDR backends behind
// proxy.Proxy — on loopback, drives it from two client connections at a
// fixed offered rate, checks every tenant's result against a local
// replay, and prints one JSON result line. See README.md.
//
//	bash perfbench/run.sh --workload fleet-1k --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is printed on the line before the result: what the metrics were
// measured on, their sample counts, and the generator's schedule.
type info struct {
	Workload      string         `json:"workload"`
	Seed          uint64         `json:"seed"`
	Traced        bool           `json:"traced"`
	Env           envStamp       `json:"env"`
	TraceKinds    int            `json:"trace_kinds"`
	Tenants       int            `json:"tenants"`
	OfferedRate   float64        `json:"offered_rounds_per_s"`
	Samples       map[string]int `json:"samples"`
	SetupQuartS   [3]float64     `json:"setup_quartiles_s"`
	AppliedRounds int64          `json:"applied_rounds"`
	BehindTicks   int            `json:"behind_ticks"`
	LateTicks     int            `json:"late_ticks"`
	LostTicks     int            `json:"lost_ticks"`
	MeasuredTicks int            `json:"measured_ticks"`
	LateP50Ms     float64        `json:"gen_late_p50_ms"`
	LateMaxMs     float64        `json:"gen_late_max_ms"`
	// AckP90Us is reported here, not as a metric, in untraced runs: it
	// doubled in runs during spells of heavy host steal time while p50
	// and CPU per round held (see README.md).
	AckP90Us  float64  `json:"ack_p90_us,omitempty"`
	Failures  []string `json:"failures,omitempty"`
	SpansFile string   `json:"spans_file,omitempty"`
}

// maxLostShare is the share of measured ticks the generator may lose:
// reach a whole tick or more after they were due, net of host stalls
// (genConn.run). Beyond it the process could not keep the schedule, so
// the run's offered load was not the configured one and its numbers are
// not reported. Smaller lags — a GC mark phase makes a few consecutive
// ticks late — and every host stall are charged to latency by the
// open-loop rule instead.
const maxLostShare = 0.05

const (
	// setupWarmups is the number of unmeasured set-ups before the
	// measured ones: the first few of a fresh process run up to three
	// times slower while the heap grows.
	setupWarmups = 6
	// setupSpan is how long measured set-ups repeat before the paced
	// window, and again after it. One set-up takes 10–30ms, and on a
	// shared VM the same set-up runs at one speed for seconds or minutes
	// at a time and then at another up to 1.7 times slower. Set-ups
	// spread over seconds average the short spells; a spell longer than
	// the run still moves the median.
	setupSpan = 8 * time.Second
	// warmup is the paced time before the measured window.
	warmup = time.Second
)

func main() {
	runtime.GOMAXPROCS(1)
	var opt options
	var traceFlag int
	var seed int64
	flag.StringVar(&opt.workload, "workload", "", "workload name")
	flag.Int64Var(&seed, "seed", 1, "input seed")
	flag.IntVar(&opt.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&opt.workdir, "workdir", ".bench_build/perfbench-run", "directory for checkpoint logs and span files")
	flag.Parse()
	opt.seed, opt.trace = uint64(seed), traceFlag == 1
	if opt.seconds < 1 || flag.NArg() > 0 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments")
		os.Exit(2)
	}
	inf, res, err := run(opt, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(inf)
	fmt.Println(string(line))
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// mark is a snapshot of the counters at a window boundary.
type mark struct {
	cpu    time.Duration
	served int64
	mem    runtime.MemStats
}

func cpuPerRound(a, b mark) float64 {
	return float64(b.cpu-a.cpu) / 1e3 / float64(max(b.served-a.served, 1))
}

// run performs one benchmark invocation.
func run(opt options, log io.Writer) (*info, *result, error) {
	w, err := lookupWorkload(opt.workload)
	if err != nil {
		return nil, nil, err
	}
	in, err := makeInputs(w, opt.seed)
	if err != nil {
		return nil, nil, err
	}
	runDir, err := filepath.Abs(filepath.Join(opt.workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(runDir)

	inf := &info{Workload: w.name, Seed: opt.seed, Traced: opt.trace, Env: newEnvStamp(runDir),
		TraceKinds: traceKinds, Tenants: w.tenants, OfferedRate: w.rate, Samples: map[string]int{}}
	steal0 := stealTicks()
	res := &result{Metrics: map[string]metric{}}
	fail := func(n int64, what string) {
		res.Failed += n
		inf.Failures = append(inf.Failures, what)
	}

	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	mainTk := tr.track()
	genTk := [2]*track{tr.track(), tr.track()}

	// Set-up, repeated: warm-up repetitions that grow the heap, then
	// measured ones for setupSpan before the paced window and again after
	// it, so no single slow spell of the host decides the median. The
	// last one before the window is the system driven.
	var sys *system
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	var setups []time.Duration
	setupOnce := func(keep, measured bool) (*system, error) {
		// Every set-up starts from a collected heap whose free pages were
		// returned to the OS, as in a fresh process; otherwise how many
		// pages a set-up faults in depends on how large the heap grew
		// before it.
		debug.FreeOSMemory()
		// Spans are recorded for the driven system's set-up only.
		var setupTk *track
		var openTk [2]*track
		if keep {
			setupTk, openTk = mainTk, genTk
		}
		s, d, nfail, err := setUp(w, in, opt.trace && keep, setupTk, openTk)
		if s == nil {
			return nil, err
		}
		res.Attempted += int64(w.tenants)
		if nfail > 0 {
			fail(int64(nfail), err.Error())
		}
		if measured {
			setups = append(setups, d)
		}
		if keep {
			return s, nil
		}
		if err := s.close(); err != nil {
			return nil, fmt.Errorf("closing a set-up: %w", err)
		}
		return nil, nil
	}
	repeatSetUps := func() error {
		for t0 := time.Now(); time.Since(t0) < setupSpan && res.Failed == 0; {
			if _, err := setupOnce(false, true); err != nil {
				return err
			}
		}
		return nil
	}
	for rep := 0; rep < setupWarmups; rep++ {
		if _, err := setupOnce(false, false); err != nil {
			return nil, nil, err
		}
	}
	if err := repeatSetUps(); err != nil {
		return nil, nil, err
	}
	if sys, err = setupOnce(true, true); err != nil {
		return nil, nil, err
	}
	if res.Failed > 0 {
		return inf, res, nil
	}

	// The paced window: warm-up, then the measured window. A traced run
	// measures its first half untraced and its second half traced.
	gens := [2]*genConn{}
	for c := range gens {
		gens[c] = newGenConn(c, w, in, sys.conns[c], genTk[c], sys.recs[c])
	}
	start := time.Now().Add(5 * time.Millisecond)
	window := time.Duration(opt.seconds) * time.Second
	sc := schedule{start: start, measure: start.Add(warmup)}
	sc.end = sc.measure.Add(window)
	sc.traced = sc.end
	type markAt struct {
		at         time.Time
		statsFirst bool // keeps the stats call's own cost out of the window
	}
	plan := []markAt{{sc.measure, true}, {sc.end, false}}
	if opt.trace {
		sc.traced = sc.measure.Add(window / 2)
		plan = []markAt{{sc.measure, true}, {sc.traced, false}, {sc.traced, true}, {sc.end, false}}
	}
	runSpan := mainTk.begin("run", 0, -1)
	genErr := make(chan error, len(gens))
	for _, g := range gens {
		go func(g *genConn) { genErr <- g.run(sc, runSpan) }(g)
	}
	var marks []mark
	var markErr error
	for _, p := range plan {
		time.Sleep(time.Until(p.at))
		var m mark
		var err error
		if p.statsFirst {
			m.served, err = sys.servedRounds()
			m.cpu = cpuTime()
		} else {
			m.cpu = cpuTime()
			m.served, err = sys.servedRounds()
		}
		if opt.trace {
			runtime.ReadMemStats(&m.mem)
		}
		markErr = errors.Join(markErr, err)
		marks = append(marks, m)
	}
	for range gens {
		if err := <-genErr; err != nil {
			return nil, nil, fmt.Errorf("generator: %w", err)
		}
	}
	mainTk.end(runSpan)
	if markErr != nil {
		return nil, nil, fmt.Errorf("sampling served rounds: %w", markErr)
	}

	// Ack quantiles are taken per measured second and the median over
	// the seconds reported, so a short slow spell of the host moves one
	// second's figure rather than the run's.
	var lats, lates []time.Duration
	perSecond := make([][]time.Duration, len(gens[0].lats))
	sent := make([]int, w.tenants)
	for _, g := range gens {
		for i, l := range g.lats {
			perSecond[i] = append(perSecond[i], l...)
			lats = append(lats, l...)
		}
		lates = append(lates, g.late...)
		inf.BehindTicks += g.behindTicks
		inf.LateTicks += g.lateTicks
		inf.LostTicks += g.lostTicks
		inf.MeasuredTicks += g.ticks
		res.Attempted += g.frames
		if g.failed > 0 {
			fail(g.failed, fmt.Sprintf("%d frames not admitted, first: %v", g.failed, g.firstErr))
		}
		for slot, ti := range g.owned {
			sent[ti] = g.seq[slot]
		}
	}
	slices.Sort(lats)
	slices.Sort(lates)
	inf.Samples["ack_us"] = len(lats)
	inf.Samples["ack_seconds"] = slices.IndexFunc(perSecond, func(l []time.Duration) bool { return len(l) == 0 })
	inf.LateP50Ms = ms(quantile(lates, 0.5))
	inf.LateMaxMs = ms(quantile(lates, 1))
	inf.AppliedRounds = marks[len(marks)-1].served - marks[0].served
	if share := float64(inf.LostTicks) / float64(max(inf.MeasuredTicks, 1)); share > maxLostShare {
		line, _ := json.Marshal(inf)
		fmt.Fprintln(log, string(line))
		return nil, nil, fmt.Errorf("run invalid: generator reached %d of %d ticks a tick or more late (%.1f%% > %.0f%%)",
			inf.LostTicks, inf.MeasuredTicks, 100*share, 100*maxLostShare)
	}

	// Correctness.
	vo, err := verify(sys, in, sent, genTk, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("verify: %w", err)
	}
	res.Attempted += int64(vo.checked)
	if vo.mismatches > 0 {
		fail(int64(vo.mismatches), fmt.Sprintf("%d tenants failed the check, first %s", vo.mismatches, vo.firstBad))
	}
	var recorded [][]byte
	if opt.trace {
		for _, r := range sys.recs {
			recorded = append(recorded, r.buf)
		}
	}
	err = sys.close()
	sys = nil
	if err != nil {
		return nil, nil, fmt.Errorf("closing: %w", err)
	}
	if err := repeatSetUps(); err != nil {
		return nil, nil, err
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	if s := stealTicks(); s >= 0 && steal0 >= 0 {
		inf.Env.StealMs = (s - steal0) * 10
	}
	inf.Samples["setup_s"] = len(setups)
	slices.Sort(setups)
	for i := range inf.SetupQuartS {
		inf.SetupQuartS[i] = quantile(setups, float64(i+1)/4).Seconds()
	}
	res.Correct = res.Failed == 0

	m := res.Metrics
	if !opt.trace {
		m["setup_s"] = metric{quantile(setups, 0.5).Seconds(), "s"}
		m["cpu_us_per_round"] = metric{cpuPerRound(marks[0], marks[1]), "us"}
		m["ack_p50_us"] = metric{medianQuantile(perSecond, 0.5), "us"}
		inf.AckP90Us = medianQuantile(perSecond, 0.9)
		m["rss_mb"] = metric{rss, "MiB"}
		return inf, res, nil
	}

	// Traced run: per-layer metrics.
	spans := tr.all()
	if err := checkSpans(spans); err != nil {
		return nil, nil, err
	}
	m["trace.overhead_frac"] = metric{cpuPerRound(marks[2], marks[3])/cpuPerRound(marks[0], marks[1]) - 1, "ratio"}
	m["ack_p90_us"] = metric{medianQuantile(perSecond, 0.9), "us"}
	m["ack_p99_us"] = metric{us(quantile(lats, 0.99)), "us"}
	m["gen.late_ms"] = metric{inf.LateP50Ms, "ms"}
	m["gen.behind_ticks"] = metric{float64(inf.BehindTicks), "count"}
	m["gen.lost_ticks"] = metric{float64(inf.LostTicks), "count"}
	for _, q := range []struct {
		metric, span, unit string
		scale              time.Duration
	}{
		{"serve.open_us", "open", "us", time.Microsecond},
		{"serve.stage_ns", "stage", "ns", time.Nanosecond},
		{"serve.flush_us", "flush", "us", time.Microsecond},
	} {
		ds := durationsOf(spans, q.span)
		slices.Sort(ds)
		inf.Samples[q.metric] = len(ds)
		m[q.metric] = metric{float64(quantile(ds, 0.5)) / float64(q.scale), q.unit}
	}
	// Allocations and collections over the untraced half, so the
	// tracer's own spans and recording do not count.
	untracedServed := float64(max(marks[1].served-marks[0].served, 1))
	m["serve.mallocs_per_round"] = metric{float64(marks[1].mem.Mallocs-marks[0].mem.Mallocs) / untracedServed, "count"}
	m["serve.gc_cycles"] = metric{float64(marks[1].mem.NumGC - marks[0].mem.NumGC), "count"}
	m["bdr.worst_reserved_df"] = metric{vo.worstReservedDF, "ratio"}
	self := selfTimes(spans)
	for _, name := range spanNames {
		m["trace.self_ms."+name] = metric{ms(self[name]), "ms"}
	}
	if err := layerMetrics(m, in, runDir, recorded); err != nil {
		return nil, nil, fmt.Errorf("layer replay: %w", err)
	}
	spansFile := filepath.Join(opt.workdir, w.name+".spans.jsonl")
	if err := writeSpans(spansFile, spans); err != nil {
		return nil, nil, err
	}
	inf.SpansFile = spansFile
	return inf, res, nil
}

// spanNames are the spans every traced run records.
var spanNames = []string{"setup", "construct", "open", "run", "tick", "stage", "flush", "drain"}

// setUp constructs a system and opens every tenant, returning the
// system and the time from constructing the first server until every
// open was acknowledged. On failed opens it returns the system, the
// count and the first error; a nil system means construction failed.
func setUp(w workloadSpec, in *inputs, record bool, mainTk *track, genTk [2]*track) (*system, time.Duration, int, error) {
	sp := mainTk.begin("setup", 0, -1)
	t0 := time.Now()
	s := &system{w: w}
	c := mainTk.begin("construct", sp, -1)
	err := s.startServers()
	if err == nil {
		err = s.dial(record)
	}
	mainTk.end(c)
	if err != nil {
		mainTk.end(sp)
		return nil, 0, 0, errors.Join(err, s.close())
	}
	nfail, err := s.openAll(in, genTk, sp)
	d := time.Since(t0)
	mainTk.end(sp)
	return s, d, nfail, err
}

// quantile returns the q-quantile of sorted durations (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	return sorted[min(max(i, 1), len(sorted))-1]
}

// medianQuantile is the median, over the groups with samples, of each
// group's q-quantile, in microseconds.
func medianQuantile(groups [][]time.Duration, q float64) float64 {
	var qs []float64
	for _, g := range groups {
		if len(g) > 0 {
			slices.Sort(g)
			qs = append(qs, us(quantile(g, q)))
		}
	}
	return median(qs)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
