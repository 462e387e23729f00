package serve

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/bdr"
	"repro/internal/ckptlog"
	"repro/internal/sched"
	"repro/internal/snap"
)

// tenant is one hosted stream: the live sched.Stream, its bounded
// ingest queue of admitted-but-unapplied round ticks, and the
// admission-control counters. All mutable state is guarded by mu.
type tenant struct {
	id      string
	polName string // the policy's display Name, for stats
	// conf is the configuration the tenant was opened with, normalized
	// by checkRequest (Speed, QueueCap and Weight ≥ 1) and immutable: it
	// is what the metadata file records and a release hands on.
	conf TenantConfig
	// minDelay is the tightest delay bound in the tenant's menu; the
	// tenant's delay factor is queued/minDelay (see TenantLoad).
	minDelay int
	// res is the tenant's admitted BDR reservation (zero = best-effort),
	// immutable after open/restore/recovery; the matching reservation-tree
	// entry is released with the tenant by the server lifecycle paths.
	res bdr.BDR

	// deficit is the weighted service this tenant is owed, the state of
	// the cross-tenant allocator (alloc.go). It is owned by the tenant's
	// single shard worker — only servePass reads or writes it — so it
	// needs no lock.
	deficit float64
	// passApplied counts the rounds applied for this tenant within the
	// current BDR allocation pass (Config.BDR). Like deficit it is owned
	// by the shard worker: servePass resets it at pass start and folds it
	// into the BDR budget accounting at pass end.
	passApplied int

	mu sync.Mutex
	st *sched.Stream
	// probe is the stream's Probe; stats reads its MaxPending.
	probe  sched.CounterSink
	queue  []sched.Request // admitted round ticks; live entries are queue[head:]
	head   int
	closed bool
	// released marks a tenant whose state was handed to another server
	// by msgRelease. The tombstone stays in the table so every later
	// command — including a racing re-open that would otherwise fork a
	// fresh stream at sequence 0 — is answered with a retryable draining
	// error until a restore (migrating back) replaces it.
	released bool
	failed   error // a poisoned stream rejects all further commands

	served         int64   // rounds applied by workers/drains, for service shares
	maxDelayFactor float64 // high-water of queued/minDelay, sampled at admission
	// BDR budget accounting (Config.BDR): bdrAccrued integrates the
	// service the reservation guaranteed over the passes the tenant was
	// backlogged in (its guaranteed fraction × the pass's applied
	// rounds), bdrServed the rounds it actually received in those
	// passes. Their ratio is the stats row's BudgetUtilization.
	bdrAccrued  float64
	bdrServed   int64
	overloads   int64
	badSeqs     int64
	checkpoints int64
	lastCkpt    int // round of the newest checkpoint in the log

	// clog is the server's group-commit checkpoint log (internal/ckptlog)
	// and metaPath the tenant's metadata file; both unset when
	// durability is off. Checkpoints are appended under mu, and the
	// log's committer batches the fsyncs. removed marks a tenant whose
	// durable state was deleted: no checkpoint may be appended after its
	// tombstone. logf receives checkpoint-path diagnostics (set together
	// with clog).
	clog     *ckptlog.Log
	metaPath string
	removed  bool
	logf     func(format string, args ...any)

	// Pooled snapshot-path buffers, guarded by mu. snapBuf holds the
	// latest full snapshot (reused every checkpoint), deltaBase the full
	// snapshot the current delta chain is computed against, deltaBuf the
	// delta scratch — so a steady-state checkpoint allocates nothing.
	snapBuf        []byte
	deltaBase      []byte
	deltaBuf       []byte
	deltaBaseRound int
	deltasSince    int
	dm             snap.DeltaMaker

	// Adaptive checkpoint pacing (Config.CkptAdaptive): EWMAs of the
	// measured snapshot cost and per-round apply cost pick the next
	// checkpoint round (see nextPaceLocked), clamped to
	// [paceMin, paceMax]. Guarded by mu.
	adaptive         bool
	paceMin, paceMax int
	snapNs, applyNs  float64 // EWMA, α=0.3; 0 = no measurement yet
	paceNext         int     // next checkpoint round; 0 = bootstrap
}

// deltaEveryFull is the delta-chain length bound: after this many
// consecutive delta checkpoints a full snapshot is re-emitted even if
// deltas stay small, bounding the work recovery pays to resolve a
// tenant (one full + one delta, never a chain).
const deltaEveryFull = 16

// ewmaAlpha weighs new cost measurements into the pacing EWMAs.
const ewmaAlpha = 0.3

func ewma(old float64, sample float64) float64 {
	if old == 0 {
		return sample
	}
	return old + ewmaAlpha*(sample-old)
}

// queuedLocked reports the number of admitted-but-unapplied round ticks.
// Callers hold mu.
func (t *tenant) queuedLocked() int { return len(t.queue) - t.head }

// nextSeqLocked is the sequence number the next Submit must carry:
// rounds applied plus rounds queued. Callers hold mu.
func (t *tenant) nextSeqLocked() int { return t.st.Round() + t.queuedLocked() }

// nextSeq is nextSeqLocked for callers not holding mu.
func (t *tenant) nextSeq() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nextSeqLocked()
}

// submit admits one round tick. It returns the rounds applied so far
// and the queue depth after admission, or an *errResp describing the
// rejection; the queue never grows past the tenant's cap, so a client
// outrunning the round rate is shed (ErrOverloaded), not buffered.
func (t *tenant) submit(seq int, arrivals sched.Request, draining bool) (round, depth int, er *errResp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if er := t.submitLocked(seq, arrivals, draining); er != nil {
		return 0, 0, er
	}
	return t.st.Round(), t.queuedLocked(), nil
}

// submitLocked is one round's admission check and enqueue. Callers hold
// mu.
func (t *tenant) submitLocked(seq int, arrivals sched.Request, draining bool) *errResp {
	if t.closed {
		return &errResp{Code: codeUnknownTenant, Msg: "tenant " + t.id + " is closed"}
	}
	if t.released {
		return &errResp{Code: codeDraining, Msg: "tenant " + t.id + " is migrating"}
	}
	if t.failed != nil {
		return &errResp{Code: codeInternal, Msg: t.failed.Error()}
	}
	if draining {
		return &errResp{Code: codeDraining, Msg: "server is draining"}
	}
	if err := sched.ValidateRequest(arrivals, t.st.NumColors()); err != nil {
		return &errResp{Code: codeInvalidArrival, Msg: err.Error()}
	}
	if expect := t.nextSeqLocked(); seq != expect {
		t.badSeqs++
		return &errResp{Code: codeBadSeq, Expected: expect, Msg: fmt.Sprintf("bad round sequence %d, expected %d", seq, expect)}
	}
	if t.queuedLocked() >= t.conf.QueueCap {
		t.overloads++
		return &errResp{Code: codeOverloaded, Msg: "tenant queue full"}
	}
	// The decoder reuses the arrivals' backing array across frames, so
	// the queue keeps its own copy. Compact the ring before it can grow
	// past twice the cap: live entries are bounded by cap, so memory
	// stays bounded no matter how long the tenant lives.
	if t.head > 0 && len(t.queue) >= 2*t.conf.QueueCap {
		n := copy(t.queue, t.queue[t.head:])
		for i := n; i < len(t.queue); i++ {
			t.queue[i] = nil
		}
		t.queue = t.queue[:n]
		t.head = 0
	}
	var tick sched.Request
	if len(arrivals) > 0 {
		tick = append(make(sched.Request, 0, len(arrivals)), arrivals...)
	}
	t.queue = append(t.queue, tick)
	t.sampleDelayFactorLocked()
	return nil
}

// delayFactorLocked is the tenant's live delay factor: backlog over the
// tightest delay bound in its menu. Callers hold mu.
func (t *tenant) delayFactorLocked() float64 {
	return float64(t.queuedLocked()) / float64(max(t.minDelay, 1))
}

// sampleDelayFactorLocked folds the live delay factor into its
// high-water mark. It runs at admission, on every allocator load probe,
// and on stats reads — not only at admission — so a tenant whose queue
// sits deep while its worker is parked (starvation) records the peak
// even when no new submit arrives. Callers hold mu.
func (t *tenant) sampleDelayFactorLocked() {
	if f := t.delayFactorLocked(); f > t.maxDelayFactor {
		t.maxDelayFactor = f
	}
}

// load snapshots the tenant's scheduling signal for the cross-tenant
// allocator, reporting ok false when the tenant has no backlog.
func (t *tenant) load() (TenantLoad, bool) {
	t.mu.Lock()
	q := t.queuedLocked()
	t.sampleDelayFactorLocked()
	t.mu.Unlock()
	if q == 0 {
		return TenantLoad{}, false
	}
	return TenantLoad{
		Queued:   q,
		MinDelay: max(t.minDelay, 1),
		Weight:   t.conf.Weight,
		Deficit:  t.deficit,
	}, true
}

// servedRounds reports the round ticks applied so far, for server-wide
// service-share totals.
func (t *tenant) servedRounds() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.served
}

// accrueBDR folds one allocation pass into the tenant's BDR budget
// accounting: accrued is the service its reservation guaranteed across
// the pass (guaranteed fraction × rounds the pass applied shard-wide),
// served the rounds the tenant itself received.
func (t *tenant) accrueBDR(accrued float64, served int) {
	t.mu.Lock()
	t.bdrAccrued += accrued
	t.bdrServed += int64(served)
	t.mu.Unlock()
}

// submitBatch admits ticks[i] as the round tick at sequence seq+i,
// stopping at the first rejection, under one lock acquisition. The
// admitted count is always a prefix length: the per-round sequence
// check runs for every round exactly as it does for single submits, so
// exactly-once ingest is preserved inside a batch. The returned errResp
// (nil when the whole batch was admitted) describes the rejection of
// round seq+admitted.
func (t *tenant) submitBatch(seq int, ticks []sched.Request, draining bool) (admitted, round, depth int, er *errResp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, tick := range ticks {
		if er = t.submitLocked(seq+i, tick, draining); er != nil {
			break
		}
		admitted++
	}
	return admitted, t.st.Round(), t.queuedLocked(), er
}

// applyQueuedLocked applies up to max queued round ticks (max <= 0 =
// all) and returns how many it applied. Callers hold mu. Under
// adaptive pacing the batch is timed so the pacer knows what a round
// of progress costs relative to a snapshot.
func (t *tenant) applyQueuedLocked(max int) (applied int) {
	var start time.Time
	if t.adaptive {
		start = time.Now()
	}
	defer func() {
		if t.adaptive && applied > 0 {
			t.applyNs = ewma(t.applyNs, float64(time.Since(start).Nanoseconds())/float64(applied))
		}
	}()
	for t.queuedLocked() > 0 && t.failed == nil && (max <= 0 || applied < max) {
		tick := t.queue[t.head]
		t.queue[t.head] = nil
		t.head++
		if t.head == len(t.queue) {
			t.queue = t.queue[:0]
			t.head = 0
		}
		if _, err := t.st.Step(tick); err != nil {
			// Arrivals were validated at admission, so a step failure is
			// an engine-level fault; poison the tenant rather than guess.
			t.failed = fmt.Errorf("serve: tenant %s: applying round %d: %w", t.id, t.st.Round(), err)
			break
		}
		applied++
	}
	t.served += int64(applied)
	return applied
}

// applyQueued applies up to max queued round ticks and appends a
// periodic checkpoint when one is due. A failed append is logged, not
// fatal: the checkpoint stays due and the next pass retries it.
func (t *tenant) applyQueued(max, every int) (applied int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	applied = t.applyQueuedLocked(max)
	if err := t.checkpointLocked(every, false); err != nil {
		t.logf("%v", err)
	}
	return applied
}

// ckptDueLocked decides whether a periodic checkpoint is due at round
// r. With adaptive pacing off this is the fixed cadence
// (CheckpointEvery); with it on, the round the pacer picked after the
// previous checkpoint. Callers hold mu.
func (t *tenant) ckptDueLocked(every, r int) bool {
	if t.adaptive {
		if t.paceNext <= 0 {
			return true // bootstrap: take one checkpoint to measure against
		}
		return r >= t.paceNext
	}
	return every > 0 && r-t.lastCkpt >= every
}

// nextPaceLocked converts the measured costs into the rounds to wait
// before the next checkpoint — Young's approximation: the overhead of
// checkpointing every k rounds is snapCost/k while the expected rewind
// exposure grows with k·applyCost·weight, minimized at
// k ≈ sqrt(2·snapCost/applyCost/weight). Heavier tenants (larger
// Weight) checkpoint more often: their rewind is worth more. Callers
// hold mu.
func (t *tenant) nextPaceLocked() int {
	iv := t.paceMax
	if t.snapNs > 0 && t.applyNs > 0 {
		cost := t.snapNs / t.applyNs // snapshot cost in units of rounds
		iv = int(math.Sqrt(2 * cost / float64(t.conf.Weight)))
	}
	return min(max(iv, max(t.paceMin, 1)), max(t.paceMax, 1))
}

// checkpointLocked appends a checkpoint to the group-commit log when
// one is due (with force, whenever the stream has moved since the last
// one) and reports a snapshot or append failure. The record is a delta
// against the retained base when the chain is short and the delta pays
// for itself, a fresh full snapshot (restarting the chain) otherwise.
// Buffers are pooled; the steady state allocates nothing. Callers hold
// mu: an append is a buffered copy — durability is the committer's
// batched fsync — and appending under the stream lock makes creation
// order and append order coincide, which keeps the per-tenant delta
// chains valid without any cross-goroutine ordering protocol.
func (t *tenant) checkpointLocked(every int, force bool) error {
	if t.clog == nil || t.removed || t.failed != nil {
		return nil
	}
	r := t.st.Round()
	if r == t.lastCkpt || !force && !t.ckptDueLocked(every, r) {
		return nil
	}
	var start time.Time
	if t.adaptive {
		start = time.Now()
	}
	cur, err := t.st.AppendSnapshot(t.snapBuf[:0])
	if err != nil {
		t.failed = fmt.Errorf("serve: tenant %s: snapshot at round %d: %w", t.id, r, err)
		return t.failed
	}
	t.snapBuf = cur
	kind, base, rec := ckptlog.KindFull, 0, cur
	if t.deltaBase != nil && t.deltasSince < deltaEveryFull {
		d := t.dm.AppendDelta(t.deltaBuf[:0], t.deltaBase, cur)
		t.deltaBuf = d
		if 2*len(d) <= len(cur) {
			kind, base, rec = ckptlog.KindDelta, t.deltaBaseRound, d
		}
	}
	if t.adaptive {
		t.snapNs = ewma(t.snapNs, float64(time.Since(start).Nanoseconds()))
	}
	if err := t.clog.Append(t.id, kind, r, base, rec); err != nil {
		// Leave the chain untouched: the checkpoint stays due.
		return fmt.Errorf("serve: tenant %s: checkpoint log append at round %d: %w", t.id, r, err)
	}
	if kind == ckptlog.KindFull {
		t.deltaBase = append(t.deltaBase[:0], cur...)
		t.deltaBaseRound = r
		t.deltasSince = 0
	} else {
		t.deltasSince++
	}
	t.lastCkpt = r
	t.checkpoints++
	if t.adaptive {
		t.paceNext = r + t.nextPaceLocked()
	}
	return nil
}

// removeFiles deletes the tenant's durable state. Marking the tenant
// removed under mu orders it against checkpointLocked: every earlier
// checkpoint is already in the log and none can follow, so the
// tombstone appended next shadows them all and a restart cannot
// resurrect the tenant. The tombstone is synced immediately because
// removal is acknowledged to the client. Best-effort: on error the meta
// file is already gone, so recovery skips the tenant anyway.
func (t *tenant) removeFiles() {
	if t.clog == nil {
		return
	}
	t.mu.Lock()
	t.removed = true
	t.mu.Unlock()
	os.Remove(t.metaPath)
	if err := t.clog.AppendTombstone(t.id); err != nil {
		t.logf("serve: tenant %s: checkpoint log tombstone: %v", t.id, err)
	} else if err := t.clog.Sync(); err != nil {
		t.logf("serve: tenant %s: checkpoint log sync: %v", t.id, err)
	}
}

// persist writes the tenant's metadata file and, for a restore, logs
// the released blob as its first checkpoint, so a crash right after the
// route flip recovers at the restored round, not at zero. A full record
// also shadows any tombstone an earlier release of this id left; it is
// synced immediately because the route flip follows the restore
// acknowledgement. A no-op without durability.
func (t *tenant) persist(blob []byte) error {
	if t.clog == nil {
		return nil
	}
	if err := writeMeta(t.metaPath, &t.conf); err != nil {
		return err
	}
	round := t.st.Round()
	if blob == nil || round == 0 {
		return nil
	}
	err := t.clog.Append(t.id, ckptlog.KindFull, round, 0, blob)
	if err == nil {
		err = t.clog.Sync()
	}
	if err != nil {
		return fmt.Errorf("serve: tenant %s: logging restore checkpoint: %w", t.id, err)
	}
	t.lastCkpt = round
	return nil
}

// flush applies every queued round tick and appends a final checkpoint
// — the graceful-shutdown path.
func (t *tenant) flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.applyQueuedLocked(0)
	return t.checkpointLocked(0, true)
}

// drain applies the whole queue, then runs empty rounds until no job is
// pending, all under one lock acquisition so no submit can interleave,
// and returns the final Result once a checkpoint covering it is durable:
// an acknowledged drain survives a crash. A failed append or sync is an
// error, not a Result. Draining an already-drained tenant is a no-op
// that returns the same Result, so a client retrying a drain whose
// acknowledgement was lost observes identical results.
func (t *tenant) drain() (*sched.Result, error) {
	t.mu.Lock()
	res, err := t.drainStreamLocked()
	if err == nil {
		err = t.checkpointLocked(0, true)
	}
	t.mu.Unlock()
	if err == nil && t.clog != nil {
		if serr := t.clog.Sync(); serr != nil {
			err = fmt.Errorf("serve: tenant %s: syncing drain checkpoint: %w", t.id, serr)
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (t *tenant) drainStreamLocked() (*sched.Result, error) {
	if t.failed != nil {
		return nil, t.failed
	}
	t.applyQueuedLocked(0)
	if t.failed != nil {
		return nil, t.failed
	}
	if _, err := t.st.Drain(); err != nil {
		t.failed = fmt.Errorf("serve: tenant %s: draining: %w", t.id, err)
		return nil, t.failed
	}
	return t.st.Result(), nil
}

// drainAndClose drains the stream and marks the tenant closed in one
// critical section, returning the final Result. Because no submit can
// interleave between the drain and the close, every round ever
// acknowledged is included in the Result — the exactly-once contract
// CloseTenant relies on. (The old two-acquisition sequence had a window
// where a submit could be admitted and acknowledged after the drain,
// then silently dropped with the tenant.) A drain failure leaves the
// tenant open (and poisoned) so the caller can surface the fault.
func (t *tenant) drainAndClose() (*sched.Result, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	res, err := t.drainStreamLocked()
	if err != nil {
		return nil, err
	}
	t.closed = true
	return res, nil
}

// result returns a retained copy of the scheduling totals so far.
func (t *tenant) result() (*sched.Result, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed != nil {
		return nil, t.failed
	}
	return t.st.Result(), nil
}

// isReleased reports whether the tenant is a migration tombstone.
func (t *tenant) isReleased() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.released
}

// release is the source half of a migration: apply everything queued so
// the snapshot carries no in-flight rounds, snapshot, and turn the
// tenant into a released tombstone. The response carries the
// configuration as opened, the resume sequence, and the state blob —
// everything a restore on the target needs. The caller (server.release)
// removes the tenant's shard registration and durable files afterwards.
func (t *tenant) release() (*ReleasedTenant, *errResp) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, &errResp{Code: codeUnknownTenant, Msg: "tenant " + t.id + " is closed"}
	}
	if t.released {
		return nil, &errResp{Code: codeDraining, Msg: "tenant " + t.id + " is migrating"}
	}
	if t.failed == nil {
		t.applyQueuedLocked(0)
	}
	if t.failed != nil {
		return nil, &errResp{Code: codeInternal, Msg: t.failed.Error()}
	}
	blob, err := t.st.Snapshot()
	if err != nil {
		t.failed = fmt.Errorf("serve: tenant %s: snapshot for release: %w", t.id, err)
		return nil, &errResp{Code: codeInternal, Msg: t.failed.Error()}
	}
	t.released = true
	return &ReleasedTenant{Config: t.conf, NextSeq: t.st.Round(), Blob: blob}, nil
}

// snapshot returns the current state blob (the payload RestoreStream
// accepts), for clients mirroring server state.
func (t *tenant) snapshot() ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failed != nil {
		return nil, t.failed
	}
	return t.st.Snapshot()
}

// stats fills one TenantStats row.
func (t *tenant) stats() TenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sampleDelayFactorLocked()
	cost := t.st.Cost()
	return TenantStats{
		ID:           t.id,
		Policy:       t.polName,
		Round:        t.st.Round(),
		NextSeq:      t.nextSeqLocked(),
		Pending:      t.st.TotalPending(),
		QueueDepth:   t.queuedLocked(),
		QueueCap:     t.conf.QueueCap,
		Executed:     t.st.Executed(),
		Dropped:      t.st.Dropped(),
		Reconfigs:    t.st.Reconfigs(),
		CostReconfig: cost.Reconfig,
		CostDrop:     cost.Drop,
		MaxPending:   t.probe.MaxPending,
		Overloads:    t.overloads,
		BadSeqs:      t.badSeqs,
		Checkpoints:  t.checkpoints,

		Weight:         t.conf.Weight,
		MinDelay:       max(t.minDelay, 1),
		ServedRounds:   t.served,
		DelayFactor:    t.delayFactorLocked(),
		MaxDelayFactor: t.maxDelayFactor,

		ReservedRate:      t.res.Rate,
		ReservedDelay:     t.res.Delay,
		BudgetUtilization: t.budgetUtilizationLocked(),
	}
}

// budgetUtilizationLocked is served-over-accrued for a reserved tenant
// (0 until the first pass, or for a best-effort tenant). Callers hold
// mu.
func (t *tenant) budgetUtilizationLocked() float64 {
	if t.bdrAccrued <= 0 {
		return 0
	}
	return float64(t.bdrServed) / t.bdrAccrued
}
