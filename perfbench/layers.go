package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/bdr"
	"repro/internal/ckptlog"
	"repro/internal/proxy"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/snap"
)

// The layer replay feeds the run's inputs straight through each
// layer's exported functions and times them there. Every workload gets
// every layer number: on a workload that does not exercise a layer, the
// number says what the layer would cost, and the end-to-end metrics it
// maps to (README.md) should not move when it changes.

// deltaEveryFull mirrors the server's checkpoint chain: a full snapshot
// after at most this many deltas against the retained base.
const deltaEveryFull = 16

// layerReps is how often each replay repeats; the median is reported.
const layerReps = 3

func layerMetrics(m map[string]metric, in *inputs, runDir string, recorded [][]byte) error {
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	var stepNs, sinkNs, allocs []float64
	for rep := 0; rep < layerReps; rep++ {
		ns, a, err := stepReplay(in, false)
		if err != nil {
			return err
		}
		stepNs, allocs = append(stepNs, ns), append(allocs, a)
		if ns, _, err = stepReplay(in, true); err != nil {
			return err
		}
		sinkNs = append(sinkNs, ns)
	}
	put("sched.step_ns", "ns", median(stepNs))
	put("sched.step_sink_ns", "ns", median(sinkNs))
	put("sched.step_allocs", "count", median(allocs))

	ck, err := checkpointReplay(in)
	if err != nil {
		return err
	}
	put("snap.snapshot_ns", "ns", ck.snapshotNs)
	put("snap.snapshot_bytes", "bytes", ck.snapshotBytes)
	put("snap.delta_ns", "ns", ck.deltaNs)
	put("snap.delta_useful_frac", "ratio", ck.usefulFrac)

	var appendNs, scanMs []float64
	var st ckptlog.Stats
	for rep := 0; rep < layerReps; rep++ {
		dir := filepath.Join(runDir, fmt.Sprintf("replay-log-%d", rep))
		ns, s, err := appendReplay(dir, ck.records)
		if err != nil {
			return err
		}
		appendNs, st = append(appendNs, ns), s
		d, err := scanLog(dir, filepath.Join(runDir, fmt.Sprintf("scan-%d", rep)), ck.tenants)
		if err != nil {
			return err
		}
		scanMs = append(scanMs, ms(d))
		os.RemoveAll(dir)
	}
	put("ckptlog.append_ns", "ns", median(appendNs))
	put("ckptlog.scan_ms", "ms", median(scanMs))
	put("ckptlog.bytes_per_round", "bytes", float64(st.Bytes)/float64(max(st.Appends, 1)))
	put("ckptlog.segments", "count", float64(st.Segments))
	dir := filepath.Join(runDir, "commit-log")
	cs, err := commitReplay(dir, ck.records)
	if err != nil {
		return err
	}
	os.RemoveAll(dir)
	put("ckptlog.fsyncs_per_kround", "count", float64(cs.Fsyncs)/float64(max(cs.Appends, 1))*1000)

	var admitNs, sharesNs, pxPickNs, allocPickNs []float64
	for rep := 0; rep < layerReps; rep++ {
		ns, err := admitReplay(in)
		if err != nil {
			return err
		}
		admitNs = append(admitNs, ns)
		sharesNs = append(sharesNs, sharesReplay(in))
		pxPickNs = append(pxPickNs, proxyPickReplay(in))
		ns, err = allocPickReplay(in)
		if err != nil {
			return err
		}
		allocPickNs = append(allocPickNs, ns)
	}
	put("bdr.admit_ns", "ns", median(admitNs))
	put("bdr.shares_ns", "ns", median(sharesNs))
	put("proxy.pick_ns", "ns", median(pxPickNs))
	put("serve.pick_ns", "ns", median(allocPickNs))

	codec, frames, err := codecReplay(recorded)
	if err != nil {
		return err
	}
	if frames == 0 {
		return fmt.Errorf("no recorded frames to replay")
	}
	put("serve.codec_ns", "ns", codec)

	hop, err := proxyHop(in)
	if err != nil {
		return err
	}
	put("proxy.hop_us", "us", hop)
	return nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func maxDelay(delays []int) int {
	return max(slices.Max(delays), 1)
}

func newStream(tr *sched.Instance, probe sched.Probe) (*sched.Stream, error) {
	pol, err := serve.NewPolicy(policySpec)
	if err != nil {
		return nil, err
	}
	return sched.NewStream(pol, sched.StreamConfig{N: resources, Speed: 1, Delta: tr.Delta, Delays: tr.Delays, Probe: probe})
}

// stepReplay steps every distinct trace through a bare stream (or one
// with the server's per-tenant MetricsSink attached) and returns the
// time and heap allocations per Step over the trace's second half, once
// the stream's buffers have grown.
func stepReplay(in *inputs, withSink bool) (nsPerStep, allocsPerStep float64, err error) {
	var total time.Duration
	var mallocs uint64
	steps := 0
	var m0, m1 runtime.MemStats
	for _, tr := range in.traces {
		var probe sched.Probe
		if withSink {
			probe = sched.NewMetricsSink(maxDelay(tr.Delays), 1024)
		}
		st, err := newStream(tr, probe)
		if err != nil {
			return 0, 0, err
		}
		half := len(tr.Requests) / 2
		for _, req := range tr.Requests[:half] {
			if _, err := st.Step(req); err != nil {
				return 0, 0, err
			}
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for _, req := range tr.Requests[half:] {
			if _, err := st.Step(req); err != nil {
				return 0, 0, err
			}
		}
		total += time.Since(t0)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		steps += len(tr.Requests) - half
	}
	return float64(total.Nanoseconds()) / float64(steps), float64(mallocs) / float64(steps), nil
}

// ckptRecord is one record the server's checkpoint path would append.
type ckptRecord struct {
	tenant           string
	kind             ckptlog.Kind
	round, baseRound int
	blob             []byte
}

type ckptReplayOut struct {
	snapshotNs, snapshotBytes, deltaNs, usefulFrac float64
	records                                        []ckptRecord
	tenants                                        []string
}

// ckptReplayTraces bounds the checkpoint replay to the first traces,
// which keeps the recorded log to about ten megabytes.
const ckptReplayTraces = 16

// checkpointReplay takes a checkpoint after every round of the first
// traces the way a durable tenant does: a snapshot, then a delta
// against the retained full base, kept when 2·len(delta) ≤ len(full).
// It records what would be appended for the log replay.
func checkpointReplay(in *inputs) (ckptReplayOut, error) {
	var out ckptReplayOut
	var snapT, deltaT time.Duration
	var snaps, attempts, useful int
	var snapBytes int64
	for j, tr := range in.traces[:min(ckptReplayTraces, len(in.traces))] {
		st, err := newStream(tr, nil)
		if err != nil {
			return out, err
		}
		id := fmt.Sprintf("replay-%02d", j)
		out.tenants = append(out.tenants, id)
		var dm snap.DeltaMaker
		var cur, base, dbuf []byte
		baseRound, since := 0, 0
		for r, req := range tr.Requests {
			if _, err := st.Step(req); err != nil {
				return out, err
			}
			t0 := time.Now()
			cur, err = st.AppendSnapshot(cur[:0])
			snapT += time.Since(t0)
			if err != nil {
				return out, err
			}
			snaps++
			snapBytes += int64(len(cur))
			rec := ckptRecord{tenant: id, kind: ckptlog.KindFull, round: r + 1}
			blob := cur
			if base != nil && since < deltaEveryFull {
				t0 = time.Now()
				dbuf = dm.AppendDelta(dbuf[:0], base, cur)
				deltaT += time.Since(t0)
				attempts++
				if 2*len(dbuf) <= len(cur) {
					useful++
					rec.kind, rec.baseRound, blob = ckptlog.KindDelta, baseRound, dbuf
				}
			}
			rec.blob = slices.Clone(blob)
			out.records = append(out.records, rec)
			if rec.kind == ckptlog.KindFull {
				base, baseRound, since = append(base[:0], cur...), r+1, 0
			} else {
				since++
			}
		}
	}
	out.snapshotNs = float64(snapT.Nanoseconds()) / float64(max(snaps, 1))
	out.snapshotBytes = float64(snapBytes) / float64(max(snaps, 1))
	out.deltaNs = float64(deltaT.Nanoseconds()) / float64(max(attempts, 1))
	out.usefulFrac = float64(useful) / float64(max(attempts, 1))
	return out, nil
}

// appendReplay appends the recorded checkpoints, in order, to a fresh
// group-commit log and returns the time per Append and the log's
// counters. The log's committer is held off until Close, so the time is
// the append path alone, not the fsyncs of whatever disk the work
// directory is on.
func appendReplay(dir string, recs []ckptRecord) (float64, ckptlog.Stats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, ckptlog.Stats{}, err
	}
	l, err := ckptlog.Open(ckptlog.Options{Dir: dir, CommitInterval: time.Hour})
	if err != nil {
		return 0, ckptlog.Stats{}, err
	}
	var total time.Duration
	for _, r := range recs {
		t0 := time.Now()
		err := l.Append(r.tenant, r.kind, r.round, r.baseRound, r.blob)
		total += time.Since(t0)
		if err != nil {
			l.Close()
			return 0, ckptlog.Stats{}, err
		}
	}
	st := l.Stats()
	if err := l.Close(); err != nil {
		return 0, st, err
	}
	return float64(total.Nanoseconds()) / float64(max(len(recs), 1)), st, nil
}

const (
	// commitRate is the append rate of the commit replay: one checkpoint
	// per round at 16 000 rounds per second, about 60% of one core for a
	// server that checkpoints every round.
	commitRate = 16000
	// commitRecords is how many records the commit replay appends, a
	// quarter of a second at commitRate.
	commitRecords = 4000
)

// commitReplay appends the first recorded checkpoints to a fresh log
// with the default group-commit interval, paced like a server that
// checkpoints every round at commitRate, and returns the log's counters
// after Close. Its fsync count is what group commit saves: one fsync per
// commit interval with appends, however many records it covers. The
// count depends on how long an fsync takes on the work directory's
// disk, which is why the append time is measured separately.
func commitReplay(dir string, recs []ckptRecord) (ckptlog.Stats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ckptlog.Stats{}, err
	}
	l, err := ckptlog.Open(ckptlog.Options{Dir: dir})
	if err != nil {
		return ckptlog.Stats{}, err
	}
	recs = recs[:min(commitRecords, len(recs))]
	perTick := int(commitRate * tickEvery.Seconds())
	start := time.Now()
	for i, r := range recs {
		if i%perTick == 0 {
			time.Sleep(time.Until(start.Add(time.Duration(i/perTick) * tickEvery)))
		}
		if err := l.Append(r.tenant, r.kind, r.round, r.baseRound, r.blob); err != nil {
			l.Close()
			return ckptlog.Stats{}, err
		}
	}
	err = l.Close()
	return l.Stats(), err
}

// scanLog copies a log directory and times opening the copy and
// resolving every tenant's latest checkpoint — recovery's read path.
func scanLog(src, scratch string, tenants []string) (time.Duration, error) {
	if err := copyDir(src, scratch); err != nil {
		return 0, err
	}
	defer os.RemoveAll(scratch)
	t0 := time.Now()
	l, err := ckptlog.Open(ckptlog.Options{Dir: scratch})
	if err != nil {
		return 0, err
	}
	for _, id := range tenants {
		if _, _, ok, err := l.Latest(id); err != nil || !ok {
			l.Close()
			return 0, fmt.Errorf("scanning %s: no checkpoint for %s (%v)", src, id, err)
		}
	}
	d := time.Since(t0)
	return d, l.Close()
}

// admitReplay admits every reservation of the tenant set into a fresh
// one-shard tree and returns the time per Admit.
func admitReplay(in *inputs) (float64, error) {
	tree, err := bdr.NewTree(bdr.BDR{Rate: 1, Delay: 0}, []bdr.BDR{{Rate: 1, Delay: 1}})
	if err != nil {
		return 0, err
	}
	var total time.Duration
	n := 0
	for i, r := range in.res {
		if r.IsZero() {
			continue
		}
		t0 := time.Now()
		err := tree.Admit(0, in.ids[i], r)
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
		n++
	}
	return float64(total.Nanoseconds()) / float64(max(n, 1)), nil
}

const callReps = 200

// sharesReplay times Controller.Shares over one shard's demands: half
// the tenants, each with a seeded backlog.
func sharesReplay(in *inputs) float64 {
	c := &bdr.Controller{ShardRate: 1}
	var demands []bdr.Demand
	for i := 0; i < len(in.ids); i += 2 {
		demands = append(demands, bdr.Demand{Res: in.res[i], Backlog: 1 + int(mix(1, i)%8), Weight: 1})
	}
	out := make([]bdr.Share, len(demands))
	t0 := time.Now()
	for k := 0; k < callReps; k++ {
		c.Shares(demands, len(demands), out)
	}
	return float64(time.Since(t0).Nanoseconds()) / callReps
}

// proxyPickReplay times the proxy's rendezvous Pick over two backends
// for every tenant ID.
func proxyPickReplay(in *inputs) float64 {
	nodes := []string{"127.0.0.1:40001", "127.0.0.1:40002"}
	sink := 0
	t0 := time.Now()
	for k := 0; k < 8; k++ {
		for _, id := range in.ids {
			sink += proxy.Pick(nodes, id)
		}
	}
	d := time.Since(t0)
	runtime.KeepAlive(sink)
	return float64(d.Nanoseconds()) / float64(8*len(in.ids))
}

// allocPickReplay times the wdrr allocator's Pick over one backlogged
// load per tenant.
func allocPickReplay(in *inputs) (float64, error) {
	a, err := serve.NewAllocator("wdrr", 0, 0)
	if err != nil {
		return 0, err
	}
	loads := make([]serve.TenantLoad, len(in.ids))
	for i := range loads {
		h := mix(2, i)
		loads[i] = serve.TenantLoad{Queued: 1 + int(h%8), MinDelay: 4, Weight: 1, Deficit: float64(h>>8%100) / 10}
	}
	sink := 0
	t0 := time.Now()
	for k := 0; k < callReps; k++ {
		sink += a.Pick(loads)
	}
	d := time.Since(t0)
	runtime.KeepAlive(sink)
	return float64(d.Nanoseconds()) / callReps, nil
}

// codecReplay decodes the recorded client byte streams frame by frame
// (ReadFrame + PeekRequest, a proxy's per-frame work) and returns the
// time per frame.
func codecReplay(streams [][]byte) (float64, int, error) {
	var total time.Duration
	frames := 0
	var buf []byte
	for _, s := range streams {
		r := bytes.NewReader(s)
		for {
			t0 := time.Now()
			body, err := serve.ReadFrame(r, buf)
			if err != nil {
				break // end of the recording (possibly mid-frame at the cap)
			}
			_, perr := serve.PeekRequest(body)
			total += time.Since(t0)
			if perr != nil {
				return 0, 0, perr
			}
			buf = body
			frames++
		}
	}
	return float64(total.Nanoseconds()) / float64(max(frames, 1)), frames, nil
}

const hopSamples = 2000

// proxyHop measures the proxy's added latency: the median strict Submit
// round trip through a proxy minus the median direct to its backend,
// alternating the two paths.
func proxyHop(in *inputs) (float64, error) {
	srv, err := serve.NewServer(serve.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		return 0, err
	}
	px, err := proxy.New(proxy.Config{Addr: "127.0.0.1:0", Backends: []string{srv.Addr().String()}})
	if err != nil {
		srv.Close()
		return 0, err
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); srv.Serve() }()
	go func() { defer wg.Done(); px.Serve() }()
	defer func() {
		px.Close()
		srv.Close()
		wg.Wait()
	}()
	direct, err := serve.Dial(srv.Addr().String())
	if err != nil {
		return 0, err
	}
	defer direct.Close()
	via, err := serve.Dial(px.Addr().String())
	if err != nil {
		return 0, err
	}
	defer via.Close()
	tr := in.traces[0]
	paths := []struct {
		cl  *serve.Client
		id  string
		rtt []time.Duration
	}{{cl: direct, id: "hop-direct"}, {cl: via, id: "hop-proxy"}}
	tc := in.tenantConfig(0, false)
	for i := range paths {
		if _, _, err := paths[i].cl.Open(paths[i].id, tc); err != nil {
			return 0, err
		}
	}
	for k := 0; k < hopSamples; k++ {
		for i := range paths {
			p := &paths[i]
			t0 := time.Now()
			_, _, err := p.cl.Submit(p.id, k, tr.Requests[k%len(tr.Requests)])
			p.rtt = append(p.rtt, time.Since(t0))
			if err != nil {
				return 0, err
			}
		}
	}
	for i := range paths {
		slices.Sort(paths[i].rtt)
	}
	return us(quantile(paths[1].rtt, 0.5)) - us(quantile(paths[0].rtt, 0.5)), nil
}

// copyDir copies the regular files of a flat directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copying %s: %s is not a regular file", src, e.Name())
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
