package serve

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// LoadConfig parameterizes RunLoad, the load generator behind
// cmd/rrload. Each tenant replays an independent per-tenant variant
// (workload.Tenant) of the named workload family, so any party that
// knows the configuration can reconstruct every trace bit-identically —
// which is how Verify checks the server lost and duplicated nothing.
type LoadConfig struct {
	// Addr is the server to drive.
	Addr string
	// Tenants is the number of concurrent tenants (default 64), each on
	// its own connection.
	Tenants int
	// Workload names the workload family (workload.Names; default
	// "router") and Params its parameters; Params.Rounds is the trace
	// length per tenant.
	Workload string
	Params   workload.Params
	// Policy is the tenant policy spec (PolicySpecs; default "dlruedf").
	Policy string
	// N and Speed configure each tenant's stream (default N 8).
	N     int
	Speed int
	// QueueCap is the per-tenant queue cap (0 = server default).
	QueueCap int
	// Rate is the target submit rate per tenant in rounds/sec; 0 runs
	// unpaced. Overload shedding (ErrOverloaded) backs off and retries,
	// so jobs are delayed, never lost.
	Rate float64
	// Pipeline keeps up to this many submit frames in flight per tenant
	// connection using tagged frames; 0 or 1 keeps the
	// strict request/response path. Batch packs this many consecutive
	// rounds into each frame (0 or 1 = one round per frame). Setting
	// either above 1 selects the pipelined driver; exactly-once ingest
	// and Verify hold in every mode.
	Pipeline int
	Batch    int
	// Verify replays every trace locally after the run and requires the
	// server's final Results to be bit-identical (LoadReport.Mismatches).
	Verify bool
	// ResRate and ResDelay declare a BDR reservation for every load
	// tenant (rrserved -bdr): a guaranteed fractional service rate and
	// the delay bound it must be supplied within. Both
	// zero (the default) runs best-effort. A tenant whose reservation is
	// rejected at admission (*AdmissionError — the shard is full) falls
	// back to opening best-effort and is counted in
	// LoadReport.AdmissionRejects, so an over-subscribed run degrades
	// loudly instead of failing.
	ResRate  float64
	ResDelay float64
	// RetryTimeout bounds how long one tenant keeps retrying through a
	// server outage (reconnect/backoff) before giving up (default 30s).
	RetryTimeout time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *LoadConfig) fill() {
	if c.Tenants <= 0 {
		c.Tenants = 64
	}
	if c.Workload == "" {
		c.Workload = "router"
	}
	if c.Policy == "" {
		c.Policy = "dlruedf"
	}
	if c.N <= 0 {
		c.N = 8
	}
	if c.RetryTimeout <= 0 {
		c.RetryTimeout = 30 * time.Second
	}
	if c.Batch < 1 {
		c.Batch = 1
	}
	if c.Batch > MaxBatch {
		c.Batch = MaxBatch
	}
	if c.Pipeline > MaxPipeline {
		c.Pipeline = MaxPipeline
	}
}

// pipelined reports whether the config selects the pipelined driver.
func (c *LoadConfig) pipelined() bool { return c.Pipeline > 1 || c.Batch > 1 }

// LoadReport summarizes a RunLoad: achieved throughput, admission
// behavior, per-submit latency quantiles, and the aggregated scheduling
// totals from every tenant's final (drained) Result.
type LoadReport struct {
	Tenants         int `json:"tenants"`
	RoundsPerTenant int `json:"rounds_per_tenant"`
	// Pipeline and Batch echo the driver mode (see LoadConfig).
	Pipeline int `json:"pipeline,omitempty"`
	Batch    int `json:"batch,omitempty"`

	RoundsSent int64 `json:"rounds_sent"`
	JobsSent   int64 `json:"jobs_sent"`
	// Shed-by-cause breakdown. Overloads counts ErrOverloaded rejections
	// — ring overflow, each retried until admitted. AdmissionRejects
	// counts BDR reservations refused by the server's feasibility check
	// (*AdmissionError); those tenants fall back to best-effort, so the
	// count is the number of tenants running without their requested
	// guarantee. DrainingRejects counts ErrDraining bounces — the server
	// (or its proxy) was shutting down or mid-migration, each retried.
	// Resumes counts sequence rewinds after a reconnect or restart;
	// Reconnects counts re-dial attempts.
	Overloads        int64 `json:"overloads"`
	AdmissionRejects int64 `json:"admission_rejects,omitempty"`
	DrainingRejects  int64 `json:"draining_rejects,omitempty"`
	Resumes          int64 `json:"resumes"`
	Reconnects       int64 `json:"reconnects"`

	ElapsedSec float64 `json:"elapsed_sec"`
	// TargetRate is the configured per-tenant rate (0 = unpaced);
	// AchievedRate is the aggregate admitted rounds/sec across tenants.
	TargetRate   float64 `json:"target_rounds_per_sec"`
	AchievedRate float64 `json:"achieved_rounds_per_sec"`
	// Latency summarizes per-Submit round-trip times in milliseconds.
	Latency stats.Summary `json:"submit_latency_ms"`

	// Aggregated finals across tenants.
	Executed     int   `json:"executed"`
	Dropped      int   `json:"dropped"`
	Reconfigs    int   `json:"reconfigs"`
	CostReconfig int64 `json:"cost_reconfig"`
	CostDrop     int64 `json:"cost_drop"`

	// Cross-tenant scheduling read-out (from the tenants' extended stats
	// rows, fetched after the run): the worst per-tenant delay-factor
	// high-water mark with the tenant holding it, and the spread of
	// service shares. See docs/SCHEDULING.md for the definitions. All
	// zero when the stats fetch fails — the fetch is best-effort and
	// never fails the run.
	WorstDelayFactor float64 `json:"worst_delay_factor,omitempty"`
	WorstDelayTenant string  `json:"worst_delay_tenant,omitempty"`
	ServiceShareMin  float64 `json:"service_share_min,omitempty"`
	ServiceShareMax  float64 `json:"service_share_max,omitempty"`

	// Mismatches lists tenants whose server Result differed from the
	// local replay (only populated with Verify; empty = bit-identical).
	Mismatches []string `json:"mismatches,omitempty"`

	// Results holds each tenant's final Result, indexed by tenant.
	Results []*sched.Result `json:"-"`
}

// loadTenantID names tenant i of a load run.
func loadTenantID(i int) string { return fmt.Sprintf("load-%03d", i) }

// tenantOutcome is one driver goroutine's take-home.
type tenantOutcome struct {
	res  *sched.Result
	lats []time.Duration
	err  error
}

// RunLoad drives cfg.Tenants concurrent tenants against an rrserved
// server, each submitting its full trace round by round (paced by Rate)
// and draining at the end. Drivers ride out overload shedding, graceful
// drain and server restarts: ErrOverloaded backs off and resubmits the
// same sequence, a reconnect re-opens the tenant and resumes from the
// server's sequence, so every trace round is applied exactly once.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg.fill()
	insts := make([]*sched.Instance, cfg.Tenants)
	for i := range insts {
		inst, err := workload.Tenant(cfg.Workload, cfg.Params, i)
		if err != nil {
			return nil, err
		}
		insts[i] = inst
	}
	rep := &LoadReport{
		Tenants:         cfg.Tenants,
		RoundsPerTenant: insts[0].NumRounds(),
		Pipeline:        cfg.Pipeline,
		Batch:           cfg.Batch,
		TargetRate:      cfg.Rate,
		Results:         make([]*sched.Result, cfg.Tenants),
	}

	var roundsSent, jobsSent, overloads, resumes, reconnects atomic.Int64
	var admissionRejects, drainingRejects atomic.Int64
	ld := &loadDriver{cfg: &cfg, roundsSent: &roundsSent, jobsSent: &jobsSent,
		overloads: &overloads, resumes: &resumes, reconnects: &reconnects,
		admissionRejects: &admissionRejects, drainingRejects: &drainingRejects}

	outs := make([]tenantOutcome, cfg.Tenants)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if cfg.pipelined() {
				outs[i] = ld.drivePipelined(i, insts[i], start)
			} else {
				outs[i] = ld.drive(i, insts[i], start)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats []time.Duration
	for i, o := range outs {
		if o.err != nil {
			return rep, fmt.Errorf("serve: load tenant %s: %w", loadTenantID(i), o.err)
		}
		rep.Results[i] = o.res
		rep.Executed += o.res.Executed
		rep.Dropped += o.res.Dropped
		rep.Reconfigs += o.res.Reconfigs
		rep.CostReconfig += o.res.Cost.Reconfig
		rep.CostDrop += o.res.Cost.Drop
		lats = append(lats, o.lats...)
	}
	rep.RoundsSent = roundsSent.Load()
	rep.JobsSent = jobsSent.Load()
	rep.Overloads = overloads.Load()
	rep.AdmissionRejects = admissionRejects.Load()
	rep.DrainingRejects = drainingRejects.Load()
	rep.Resumes = resumes.Load()
	rep.Reconnects = reconnects.Load()
	rep.ElapsedSec = elapsed.Seconds()
	if elapsed > 0 {
		rep.AchievedRate = float64(rep.RoundsSent) / elapsed.Seconds()
	}
	rep.Latency = stats.SummarizeDurations(lats)

	if cfg.Verify {
		for i, inst := range insts {
			ref, err := LocalReference(inst, cfg.Policy, cfg.N, cfg.Speed)
			if err != nil {
				return rep, err
			}
			if !resultsEqual(ref, rep.Results[i]) {
				rep.Mismatches = append(rep.Mismatches, loadTenantID(i))
			}
		}
	}
	rep.fillSchedReadout(&cfg)
	return rep, nil
}

// fillSchedReadout fetches the load tenants' stats rows and fills the
// report's scheduling fields: the worst delay-factor high-water mark
// and the service-share spread. Best-effort — a server that is gone
// leaves everything zero.
func (rep *LoadReport) fillSchedReadout(cfg *LoadConfig) {
	c, err := Dial(cfg.Addr)
	if err != nil {
		return
	}
	defer c.Close()
	rows, err := c.Stats("")
	if err != nil {
		return
	}
	want := make(map[string]bool, cfg.Tenants)
	for i := 0; i < cfg.Tenants; i++ {
		want[loadTenantID(i)] = true
	}
	first := true
	for _, r := range rows {
		if !want[r.ID] {
			continue // a shared server may host unrelated tenants
		}
		if first {
			rep.ServiceShareMin, rep.ServiceShareMax = r.ServiceShare, r.ServiceShare
		}
		if first || r.MaxDelayFactor > rep.WorstDelayFactor {
			rep.WorstDelayFactor, rep.WorstDelayTenant = r.MaxDelayFactor, r.ID
		}
		rep.ServiceShareMin = min(rep.ServiceShareMin, r.ServiceShare)
		rep.ServiceShareMax = max(rep.ServiceShareMax, r.ServiceShare)
		first = false
	}
}

// loadDriver shares the run-wide counters across tenant goroutines.
type loadDriver struct {
	cfg *LoadConfig

	roundsSent, jobsSent              *atomic.Int64
	overloads, resumes, reconnects    *atomic.Int64
	admissionRejects, drainingRejects *atomic.Int64
}

func (ld *loadDriver) logf(format string, args ...any) {
	if ld.cfg.Logf != nil {
		ld.cfg.Logf(format, args...)
	}
}

// retryable reports whether an open/dial failure is worth waiting out:
// transport errors and graceful drain resolve when the server returns;
// a config conflict, unknown policy, or admission rejection never will
// (an infeasible reservation stays infeasible until capacity frees).
func retryable(err error) bool {
	if errors.Is(err, ErrDraining) {
		return true
	}
	var re *RemoteError
	var bs *BadSeqError
	var ae *AdmissionError
	if errors.As(err, &re) || errors.As(err, &bs) || errors.As(err, &ae) ||
		errors.Is(err, ErrTenantExists) || errors.Is(err, ErrUnknownTenant) || errors.Is(err, ErrOverloaded) {
		return false
	}
	return true // dial/transport failure
}

// tenantConn owns one driver goroutine's connection — (re)dialing and
// re-opening its tenant with retry — so the strict and pipelined
// drivers share the resilience logic.
type tenantConn struct {
	ld *loadDriver
	id string
	tc TenantConfig
	cl *Client
}

// connect (re)dials and re-opens the tenant, returning the server's
// resume sequence. It retries transport failures and graceful drain
// until RetryTimeout.
func (tcn *tenantConn) connect() (int, error) {
	ld := tcn.ld
	cfg := ld.cfg
	if tcn.cl != nil {
		tcn.cl.Close()
		tcn.cl = nil
	}
	deadline := time.Now().Add(cfg.RetryTimeout)
	for {
		c, err := Dial(cfg.Addr)
		if err == nil {
			next, _, oerr := c.Open(tcn.id, tcn.tc)
			if oerr == nil {
				tcn.cl = c
				return next, nil
			}
			c.Close()
			err = oerr
		}
		var ae *AdmissionError
		if errors.As(err, &ae) && tcn.tc.ResRate > 0 {
			// The shard refused the reservation — typed, before any state
			// existed. Fall back to best-effort so the trace still flows,
			// and count the lost guarantee.
			ld.admissionRejects.Add(1)
			ld.logf("load %s: reservation rejected (%v); falling back to best-effort", tcn.id, ae)
			tcn.tc.ResRate, tcn.tc.ResDelay = 0, 0
			continue
		}
		if errors.Is(err, ErrDraining) {
			ld.drainingRejects.Add(1)
		}
		if !retryable(err) {
			return 0, err
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("retry budget exhausted: %w", err)
		}
		ld.reconnects.Add(1)
		time.Sleep(25 * time.Millisecond)
	}
}

// newTenantConn builds the connection state for load tenant i.
func (ld *loadDriver) newTenantConn(i int, inst *sched.Instance) *tenantConn {
	cfg := ld.cfg
	return &tenantConn{ld: ld, id: loadTenantID(i), tc: TenantConfig{
		Policy: cfg.Policy, N: cfg.N, Speed: cfg.Speed,
		Delta: inst.Delta, Delays: inst.Delays, QueueCap: cfg.QueueCap,
		ResRate: cfg.ResRate, ResDelay: cfg.ResDelay,
	}}
}

// drainWithRefeed finishes a run: drain the tenant with the same
// resilience as the submit loop. If the server restarted from a
// checkpoint behind the trace end, it re-feeds the lost tail (strict
// submits — this path is rare) before retrying the drain. It fills
// o.res, or o.err on giving up, and reports success.
func (ld *loadDriver) drainWithRefeed(conn *tenantConn, trace []sched.Request, o *tenantOutcome) bool {
	deadline := time.Now().Add(ld.cfg.RetryTimeout)
	for {
		res, err := conn.cl.DrainTenant(conn.id)
		if err == nil {
			o.res = res
			return true
		}
		if time.Now().After(deadline) {
			o.err = fmt.Errorf("draining: %w", err)
			return false
		}
		next, cerr := conn.connect()
		if cerr != nil {
			o.err = cerr
			return false
		}
		if cursor := min(next, len(trace)); cursor < len(trace) {
			// The restart lost rounds past the last checkpoint; re-feed
			// them before draining again.
			for cursor < len(trace) {
				if _, _, serr := conn.cl.Submit(conn.id, cursor, trace[cursor]); serr == nil {
					cursor++
				} else if errors.Is(serr, ErrOverloaded) {
					ld.overloads.Add(1)
					time.Sleep(2 * time.Millisecond)
				} else {
					break // fall through to the outer retry
				}
			}
		}
	}
}

// drive runs one tenant: open, submit every trace round exactly once,
// drain, riding out shed ticks and server restarts.
func (ld *loadDriver) drive(i int, inst *sched.Instance, start time.Time) (o tenantOutcome) {
	cfg := ld.cfg
	conn := ld.newTenantConn(i, inst)
	id := conn.id
	trace := inst.Requests

	next, err := conn.connect()
	if err != nil {
		o.err = err
		return o
	}
	cursor := min(next, len(trace))
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(time.Second) / cfg.Rate)
	}
	for cursor < len(trace) {
		if interval > 0 {
			if d := time.Until(start.Add(time.Duration(cursor+1) * interval)); d > 0 {
				time.Sleep(d)
			}
		}
		t0 := time.Now()
		_, _, err := conn.cl.Submit(id, cursor, trace[cursor])
		var bs *BadSeqError
		switch {
		case err == nil:
			o.lats = append(o.lats, time.Since(t0))
			ld.roundsSent.Add(1)
			ld.jobsSent.Add(int64(trace[cursor].Jobs()))
			cursor++
		case errors.Is(err, ErrOverloaded):
			// The tick was shed, not lost: back off and resubmit the same
			// sequence once the round engine has caught up.
			ld.overloads.Add(1)
			time.Sleep(2 * time.Millisecond)
		case errors.As(err, &bs):
			// A duplicate after a lost acknowledgement (Expected > cursor)
			// or a rewind after a crash restore (Expected < cursor): the
			// server names the resume point either way.
			ld.resumes.Add(1)
			cursor = min(bs.Expected, len(trace))
		default:
			// Transport failure or graceful drain: reconnect and resume
			// from the sequence the (possibly restarted) server reports.
			if errors.Is(err, ErrDraining) {
				ld.drainingRejects.Add(1)
			}
			ld.logf("load %s: %v; reconnecting", id, err)
			next, cerr := conn.connect()
			if cerr != nil {
				o.err = cerr
				return o
			}
			ld.resumes.Add(1)
			cursor = min(next, len(trace))
		}
	}

	if !ld.drainWithRefeed(conn, trace, &o) {
		return o
	}
	conn.cl.Close()
	return o
}

// drivePipelined is drive with a bounded in-flight window and optional
// batched frames. Staging runs ahead of acknowledgements; the onAck
// callback records admissions, and the first rejecting acknowledgement
// stops staging so the driver can resync exactly as the strict path
// does — back off and resubmit on ErrOverloaded, jump to the server's
// resume point on *BadSeqError, reconnect on anything else. Because
// admission is sequential and every round's acknowledgement is
// eventually reaped, exactly-once ingest holds just as in drive.
func (ld *loadDriver) drivePipelined(i int, inst *sched.Instance, start time.Time) (o tenantOutcome) {
	cfg := ld.cfg
	conn := ld.newTenantConn(i, inst)
	id := conn.id
	trace := inst.Requests
	window := max(cfg.Pipeline, 1)

	var (
		resync   bool         // a reaped ack carried a rejection
		rejected SubmitResult // the first such ack since the last resync
	)
	onAck := func(r SubmitResult) {
		for k := 0; k < r.Admitted; k++ {
			ld.roundsSent.Add(1)
			ld.jobsSent.Add(int64(trace[r.Seq+k].Jobs()))
		}
		if r.Admitted > 0 {
			o.lats = append(o.lats, r.RTT)
		}
		if r.Err != nil && !resync {
			resync = true
			rejected = r
		}
	}

	next, err := conn.connect()
	if err != nil {
		o.err = err
		return o
	}
	cursor := min(next, len(trace))
	pl := conn.cl.NewPipeline(window, onAck)

	// reconnect re-dials, resumes the cursor from the server's sequence
	// (in-flight frames whose acknowledgements were lost are accounted
	// for there), and starts a fresh pipeline on the new connection.
	reconnect := func() bool {
		next, cerr := conn.connect()
		if cerr != nil {
			o.err = cerr
			return false
		}
		ld.resumes.Add(1)
		cursor = min(next, len(trace))
		pl = conn.cl.NewPipeline(window, onAck)
		resync = false
		return true
	}

	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(time.Second) / cfg.Rate)
	}
	for {
		for cursor < len(trace) && !resync {
			if interval > 0 {
				if d := time.Until(start.Add(time.Duration(cursor+1) * interval)); d > 0 {
					time.Sleep(d)
				}
			}
			k := min(cfg.Batch, len(trace)-cursor)
			var serr error
			if k == 1 {
				serr = pl.Submit(id, cursor, trace[cursor])
			} else {
				serr = pl.SubmitBatch(id, cursor, trace[cursor:cursor+k])
			}
			if serr != nil {
				ld.logf("load %s: %v; reconnecting", id, serr)
				if !reconnect() {
					return o
				}
				continue
			}
			cursor += k
		}
		// Drain the window; acknowledgements reaped here can still flip
		// resync, so the rejection check below runs after the flush.
		if ferr := pl.Flush(); ferr != nil {
			ld.logf("load %s: %v; reconnecting", id, ferr)
			if !reconnect() {
				return o
			}
			continue
		}
		if resync {
			r, bs := rejected, (*BadSeqError)(nil)
			resync = false
			switch {
			case errors.As(r.Err, &bs):
				// Later in-flight frames rejected behind this one changed
				// nothing, so the first rejection's resume point stands.
				ld.resumes.Add(1)
				cursor = min(bs.Expected, len(trace))
			case errors.Is(r.Err, ErrOverloaded):
				ld.overloads.Add(1)
				cursor = min(r.Seq+r.Admitted, len(trace))
				time.Sleep(2 * time.Millisecond)
			default:
				if errors.Is(r.Err, ErrDraining) {
					ld.drainingRejects.Add(1)
				}
				ld.logf("load %s: %v; reconnecting", id, r.Err)
				if !reconnect() {
					return o
				}
			}
			continue
		}
		if cursor >= len(trace) {
			break
		}
	}

	if !ld.drainWithRefeed(conn, trace, &o) {
		return o
	}
	conn.cl.Close()
	return o
}

// LocalReference replays an instance through a local Stream under the
// same policy spec and resources a server tenant would use, returning
// the drained Result — the ground truth RunLoad's Verify and the
// integration tests compare server results against.
func LocalReference(inst *sched.Instance, policySpec string, n, speed int) (*sched.Result, error) {
	pol, err := NewPolicy(policySpec)
	if err != nil {
		return nil, err
	}
	st, err := sched.NewStream(pol, sched.StreamConfig{
		N: n, Speed: speed, Delta: inst.Delta, Delays: inst.Delays,
	})
	if err != nil {
		return nil, err
	}
	for _, req := range inst.Requests {
		if _, err := st.Step(req); err != nil {
			return nil, err
		}
	}
	if _, err := st.Drain(); err != nil {
		return nil, err
	}
	return st.Result(), nil
}

// resultsEqual compares two Results field by field, excluding the
// Schedule (which the wire never carries).
func resultsEqual(a, b *sched.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Policy == b.Policy && a.Cost == b.Cost &&
		a.Executed == b.Executed && a.Dropped == b.Dropped &&
		a.Reconfigs == b.Reconfigs && a.Rounds == b.Rounds &&
		slices.Equal(a.DropsByColor, b.DropsByColor) &&
		slices.Equal(a.ExecByColor, b.ExecByColor)
}
