package serve

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bdr"
	"repro/internal/ckptlog"
	"repro/internal/sched"
	"repro/internal/snap"
	"repro/internal/trace"
)

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" picks a free port).
	Addr string
	// CheckpointDir enables durability: every tenant gets a metadata
	// file at open, its periodic checkpoints are appended to a shared
	// group-commit segment log (internal/ckptlog) whose committer batches
	// the fsyncs, and NewServer recovers all tenants found there. ""
	// disables both.
	CheckpointDir string
	// CheckpointEvery is the number of applied rounds between periodic
	// per-tenant checkpoints (default 64). Graceful shutdown always
	// writes a final checkpoint regardless.
	CheckpointEvery int
	// CkptCommitInterval is the checkpoint log's group-commit fsync
	// interval (default 2ms). Appends buffered within one interval share a
	// single fsync; a crash loses at most the last interval's records.
	CkptCommitInterval time.Duration
	// CkptSegmentBytes caps a log segment before rotation (default 4MiB).
	CkptSegmentBytes int
	// CkptAdaptive enables per-tenant adaptive checkpoint pacing: the
	// round gap between checkpoints is chosen from the measured
	// snapshot cost versus apply cost, weighted by the tenant's Weight,
	// instead of the fixed CheckpointEvery cadence.
	CkptAdaptive bool
	// CkptPaceMin/CkptPaceMax clamp the adaptive pacer's chosen gap in
	// rounds (defaults 1 and 1024).
	CkptPaceMin int
	CkptPaceMax int
	// RoundInterval, when positive, paces round application: each shard
	// worker applies at most one queued tick per tenant per interval, so
	// arrivals batch into timed round ticks and a client outrunning the
	// rate is shed at its queue cap. Zero applies ticks eagerly.
	RoundInterval time.Duration
	// Shards is the worker-pool size tenants are hashed across
	// (default GOMAXPROCS, capped at 16).
	Shards int
	// MaxTenants bounds the number of live tenants (default 4096).
	MaxTenants int
	// DefaultQueueCap is the per-tenant pending-queue cap applied when
	// an open request leaves QueueCap 0 (default 64).
	DefaultQueueCap int
	// ConnWindow bounds the per-connection table of staged-but-unwritten
	// responses (default 256). A pipelining client may keep up to this
	// many requests in flight before the reader stops pulling frames and
	// TCP backpressure takes over.
	ConnWindow int
	// Allocator selects the cross-tenant allocation policy shard workers
	// use to pick the next backlogged tenant (see NewAllocator): "wdrr"
	// — weighted deficit round-robin with delay-factor escalation — by
	// default, or "fifo" for the legacy drain-in-scan-order behavior.
	Allocator string
	// AllocQuantum is the base rounds served per wdrr pick, scaled by
	// the tenant's weight (default 8). Smaller quanta interleave tenants
	// more finely at slightly higher scheduling overhead.
	AllocQuantum int
	// AllocEscalation is the delay factor (backlog over tightest delay
	// bound) at which a tenant enters wdrr's priority set: once any
	// tenant crosses it, only tenants at or past it are served until the
	// set empties. 0 selects the default 0.5; negative disables
	// escalation.
	AllocEscalation float64
	// BDR enables bounded-delay admission control (docs/SCHEDULING.md
	// "Admission"): open requests may carry a (rate, delay) reservation,
	// admitted iff the shard's supply-bound-function feasibility check
	// passes, and shard workers run the fractional-share controller that
	// converts reservations plus measured backlog into per-pass weights
	// and budgets. Off (the default), a reservation-carrying open is
	// rejected and scheduling behaves exactly as without this field.
	BDR bool
	// MachineRate/MachineDelay are the machine root's BDR when BDR is
	// on: the total service rate in rounds per shard-worker tick
	// (default Shards — one dedicated worker per shard) and its delay
	// bound (default 0).
	MachineRate  float64
	MachineDelay float64
	// ShardRate/ShardDelay are each shard's BDR under the machine
	// (defaults MachineRate/Shards and MachineDelay+1). Tenant
	// reservations are admitted against the shard the tenant hashes to:
	// rates must fit the shard's residual rate and delays must strictly
	// exceed ShardDelay.
	ShardRate  float64
	ShardDelay float64
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.CkptPaceMin <= 0 {
		c.CkptPaceMin = 1
	}
	if c.CkptPaceMax <= 0 {
		c.CkptPaceMax = 1024
	}
	if c.Shards <= 0 {
		c.Shards = min(runtime.GOMAXPROCS(0), 16)
	}
	if c.MaxTenants <= 0 {
		c.MaxTenants = 4096
	}
	if c.DefaultQueueCap <= 0 {
		c.DefaultQueueCap = 64
	}
	if c.ConnWindow <= 0 {
		c.ConnWindow = 256
	}
	if c.BDR {
		if c.MachineRate <= 0 {
			c.MachineRate = float64(c.Shards)
		}
		if c.MachineDelay < 0 {
			c.MachineDelay = 0
		}
		if c.ShardRate <= 0 {
			c.ShardRate = c.MachineRate / float64(c.Shards)
		}
		if c.ShardDelay <= c.MachineDelay {
			c.ShardDelay = c.MachineDelay + 1
		}
	}
}

// Server hosts many tenants — each an independent sched.Stream with its
// own policy — behind the wire protocol (see the package comment).
// Round ticks admitted by Submit are applied asynchronously by a
// sharded worker pool; per-tenant checkpoints make every tenant
// recoverable across restarts.
type Server struct {
	cfg   Config
	alloc Allocator // cross-tenant allocation policy (see alloc.go)
	ln    net.Listener

	// tree is the hierarchical BDR reservation tree (machine → shard →
	// tenant) and ctrl the fractional-share controller shard workers
	// consult each pass; both nil unless Config.BDR is set. The tree is
	// guarded by mu (every mutation happens inside tenant-lifecycle
	// critical sections that already hold it).
	tree *bdr.Tree
	ctrl *bdr.Controller

	// clog is the shared group-commit checkpoint log; nil when
	// durability is off.
	clog *ckptlog.Log

	mu      sync.Mutex
	tenants map[string]*tenant
	// sorted caches tenantList's ID-ordered snapshot; it is rebuilt on
	// demand and dropped whenever the tenant set changes. Published
	// slices are never mutated, so callers may hold one across the lock.
	sorted []*tenant
	conns  map[net.Conn]struct{}

	draining atomic.Bool

	shards    []*shard
	stopShard chan struct{}
	shardWG   sync.WaitGroup
	connWG    sync.WaitGroup

	stopOnce sync.Once
	stopErr  error
}

// shard is one worker's set of tenants. wake is a coalesced
// notification: the worker drains it before scanning, so a poke
// arriving mid-scan is never lost.
type shard struct {
	mu      sync.Mutex
	tenants []*tenant
	wake    chan struct{}
}

func (sh *shard) add(t *tenant) {
	sh.mu.Lock()
	sh.tenants = append(sh.tenants, t)
	sh.mu.Unlock()
}

func (sh *shard) remove(t *tenant) {
	sh.mu.Lock()
	if i := slices.Index(sh.tenants, t); i >= 0 {
		sh.tenants = slices.Delete(sh.tenants, i, i+1)
	}
	sh.mu.Unlock()
}

func (sh *shard) snapshot(dst []*tenant) []*tenant {
	sh.mu.Lock()
	dst = append(dst, sh.tenants...)
	sh.mu.Unlock()
	return dst
}

func (sh *shard) poke() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// NewServer prepares a server: it recovers every tenant found in
// CheckpointDir, binds the listener (so Addr is valid before Serve),
// and starts the shard workers. Call Serve to accept connections.
func NewServer(cfg Config) (*Server, error) {
	cfg.fill()
	alloc, err := NewAllocator(cfg.Allocator, cfg.AllocQuantum, cfg.AllocEscalation)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		alloc:     alloc,
		tenants:   make(map[string]*tenant),
		conns:     make(map[net.Conn]struct{}),
		stopShard: make(chan struct{}),
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &shard{wake: make(chan struct{}, 1)})
	}
	if cfg.BDR {
		// One BDR per shard under the machine root; fill() has already
		// defaulted the rates so the split is feasible unless the caller
		// overcommitted it explicitly — which NewTree rejects.
		shardBDRs := make([]bdr.BDR, cfg.Shards)
		for i := range shardBDRs {
			shardBDRs[i] = bdr.BDR{Rate: cfg.ShardRate, Delay: cfg.ShardDelay}
		}
		tree, err := bdr.NewTree(bdr.BDR{Rate: cfg.MachineRate, Delay: cfg.MachineDelay}, shardBDRs)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.tree = tree
		s.ctrl = &bdr.Controller{ShardRate: cfg.ShardRate}
	}
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: creating checkpoint dir: %w", err)
		}
		clog, err := ckptlog.Open(ckptlog.Options{
			Dir:            cfg.CheckpointDir,
			CommitInterval: cfg.CkptCommitInterval,
			SegmentBytes:   int64(cfg.CkptSegmentBytes),
			Logf:           cfg.Logf,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: opening checkpoint log: %w", err)
		}
		s.clog = clog
		if err := s.recover(); err != nil {
			s.clog.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listening on %s: %w", cfg.Addr, err)
	}
	s.ln = ln
	for _, sh := range s.shards {
		s.shardWG.Add(1)
		go s.shardWorker(sh)
	}
	return s, nil
}

// Addr reports the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// NumTenants reports the number of live tenants. Released migration
// tombstones are not counted — their state lives on another server.
func (s *Server) NumTenants() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, t := range s.tenants {
		if !t.isReleased() {
			n++
		}
	}
	return n
}

// Serve accepts connections until the listener closes. It returns nil
// after Shutdown or Close, and the accept error otherwise.
func (s *Server) Serve() error {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		// Register and reserve the handler under one lock acquisition,
		// re-checking draining inside it. A connection accepted in the
		// race with stop() is either registered before stop's close
		// sweep runs (the sweep holds the same lock, so it sees and
		// closes it, and connWG.Wait covers its handler) or lands after
		// draining is set and is refused here — never an unclosed
		// connection whose handler outlives Shutdown.
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

// Shutdown drains gracefully: stop admitting work (in-flight submits
// get ErrDraining), stop the shard workers, flush every tenant's queued
// round ticks, append a final checkpoint per tenant, close all
// connections, then commit the checkpoint log. It is the SIGTERM path
// of cmd/rrserved.
func (s *Server) Shutdown() error { return s.stop(true) }

// Close stops abruptly — no flush, no final checkpoints — leaving only
// the periodic checkpoints on disk. It approximates a crash (the
// fault-injection tests use it); production code wants Shutdown.
func (s *Server) Close() error { return s.stop(false) }

func (s *Server) stop(flush bool) error {
	s.stopOnce.Do(func() {
		s.draining.Store(true)
		s.ln.Close()
		close(s.stopShard)
		s.shardWG.Wait()
		if flush {
			for _, t := range s.tenantList() {
				if err := t.flush(); err != nil {
					s.logf("%v", err)
					if s.stopErr == nil {
						s.stopErr = err
					}
				}
			}
		}
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.connWG.Wait()
		// The log closes only after every connection handler is gone —
		// a handler mid-drain can still append checkpoints. Graceful
		// shutdown commits the tail; Close abandons it unsynced, the
		// crash analogue the fault-injection tests rely on.
		if s.clog != nil {
			if flush {
				if err := s.clog.Close(); err != nil {
					s.logf("serve: closing checkpoint log: %v", err)
					if s.stopErr == nil {
						s.stopErr = err
					}
				}
			} else {
				s.clog.Abort()
			}
		}
	})
	return s.stopErr
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) tenant(id string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenants[id]
}

// tenantList returns the tenants sorted by ID. The snapshot is cached
// until the tenant set changes — the stats command calls this on every
// request, and re-sorting a big fleet per poll is measurable — and is
// immutable once returned: neither the server nor callers may modify it.
func (s *Server) tenantList() []*tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sorted == nil {
		ts := make([]*tenant, 0, len(s.tenants))
		for _, t := range s.tenants {
			ts = append(ts, t)
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })
		s.sorted = ts
	}
	return s.sorted
}

func (s *Server) shardFor(id string) *shard { return s.shards[s.shardIndex(id)] }

// shardIndex is the tenant-to-shard hash. The BDR reservation tree is
// indexed by the same value, so a tenant's reservation always lives on
// the shard whose worker serves it.
func (s *Server) shardIndex(id string) int {
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32() % uint32(len(s.shards)))
}

// shardWorker applies admitted round ticks for the shard's tenants: a
// full allocation pass (servePass) on every poke in eager mode, or a
// budgeted pass — one round of budget per backlogged tenant — per
// RoundInterval in paced mode. Which backlogged tenant each round goes
// to is the cross-tenant allocator's decision (alloc.go), not arrival
// order.
func (s *Server) shardWorker(sh *shard) {
	defer s.shardWG.Done()
	var tick <-chan time.Time
	if s.cfg.RoundInterval > 0 {
		tk := time.NewTicker(s.cfg.RoundInterval)
		defer tk.Stop()
		tick = tk.C
	}
	budget := 0 // eager: drain the pass snapshot completely
	if tick != nil {
		budget = -1 // paced: one round per backlogged tenant per interval
	}
	var ps passState
	for {
		if tick != nil {
			select {
			case <-s.stopShard:
				return
			case <-tick:
			}
		} else {
			select {
			case <-s.stopShard:
				return
			case <-sh.wake:
			}
		}
		s.servePass(sh, &ps, budget)
	}
}

// ——— Tenant lifecycle ———

// validTenantID restricts IDs to filename-safe tokens, since durable
// tenants name their metadata and checkpoint files after the ID.
func validTenantID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			return false
		}
	}
	return true
}

// maxTenantWeight bounds the per-tenant service weight an open request
// may declare, keeping deficit arithmetic well-conditioned.
const maxTenantWeight = 1 << 20

// newTenant builds a tenant from its normalized configuration, without
// its stream: the caller creates or restores the stream with &t.probe
// as its Probe. Durability is attached when the server has a
// checkpoint log.
func (s *Server) newTenant(id string, pol sched.Policy, conf TenantConfig) *tenant {
	t := &tenant{
		id: id, polName: pol.Name(), conf: conf,
		minDelay: minDelayOf(conf.Delays),
		res:      bdr.BDR{Rate: conf.ResRate, Delay: conf.ResDelay},
	}
	if s.clog != nil {
		t.clog = s.clog
		t.metaPath = filepath.Join(s.cfg.CheckpointDir, id+".meta")
		t.logf = s.logf
		t.adaptive = s.cfg.CkptAdaptive
		t.paceMin = s.cfg.CkptPaceMin
		t.paceMax = s.cfg.CkptPaceMax
	}
	return t
}

// checkRequest validates the fields open and restore share — protocol
// version, tenant ID, service weight and BDR reservation — and returns
// the configuration with its defaults resolved: Speed 0 selects 1,
// QueueCap 0 the server default, Weight 0 the weight 1. A reservation
// on a non-BDR server is a bad request (the client asked for a
// guarantee this server cannot enforce), and a malformed one is
// rejected before the admission check.
func (s *Server) checkRequest(version int, id string, tc TenantConfig) (TenantConfig, *errResp) {
	res := bdr.BDR{Rate: tc.ResRate, Delay: tc.ResDelay}
	switch {
	case version != ProtocolVersion:
		return tc, &errResp{Code: codeBadVersion,
			Msg: fmt.Sprintf("protocol version %d, server speaks %d", version, ProtocolVersion)}
	case !validTenantID(id):
		return tc, &errResp{Code: codeBadRequest,
			Msg: fmt.Sprintf("invalid tenant ID %q (want 1-64 chars of [A-Za-z0-9_-])", id)}
	case tc.Weight < 0 || tc.Weight > maxTenantWeight:
		return tc, &errResp{Code: codeBadRequest,
			Msg: fmt.Sprintf("invalid tenant weight %d (want 0-%d; 0 selects 1)", tc.Weight, maxTenantWeight)}
	case res.IsZero():
	case !s.cfg.BDR:
		return tc, &errResp{Code: codeBadRequest,
			Msg: "tenant reservation requires a BDR-enabled server (rrserved -bdr)"}
	case !res.Valid() || res.Rate > 1:
		return tc, &errResp{Code: codeBadRequest,
			Msg: fmt.Sprintf("invalid reservation (rate %g, delay %g): want 0 < rate ≤ 1 and delay ≥ 0", res.Rate, res.Delay)}
	}
	if tc.Speed == 0 {
		tc.Speed = 1
	}
	if tc.QueueCap <= 0 {
		tc.QueueCap = s.cfg.DefaultQueueCap
	}
	tc.Weight = max(tc.Weight, 1)
	tc.Delays = slices.Clone(tc.Delays)
	return tc, nil
}

// stream is the configuration's sched.StreamConfig (Probe unset).
func (tc *TenantConfig) stream() sched.StreamConfig {
	return sched.StreamConfig{N: tc.N, Speed: tc.Speed, Delta: tc.Delta, Delays: tc.Delays}
}

// sameStream reports whether a stream configuration — a snapshot's,
// from sched.PeekSnapshot — is the one tc declares.
func (tc *TenantConfig) sameStream(c sched.StreamConfig) bool {
	return c.N == tc.N && c.Speed == tc.Speed && c.Delta == tc.Delta && slices.Equal(c.Delays, tc.Delays)
}

// minDelayOf returns the tightest positive delay bound in a tenant's
// menu (≥ 1): the denominator of its delay factor.
func minDelayOf(delays []int) int {
	md := 0
	for _, d := range delays {
		if d > 0 && (md == 0 || d < md) {
			md = d
		}
	}
	return max(md, 1)
}

// matches reports whether a normalized open request names the
// configuration this tenant runs under, so a client can re-attach
// idempotently.
func (t *tenant) matches(want *TenantConfig) bool {
	c := &t.conf
	return c.Policy == want.Policy && c.QueueCap == want.QueueCap && c.Weight == want.Weight &&
		c.ResRate == want.ResRate && c.ResDelay == want.ResDelay && c.sameStream(want.stream())
}

// open creates a tenant, or re-attaches to a live one with a matching
// configuration.
func (s *Server) open(m *openMsg) (*openResp, *errResp) {
	conf, er := s.checkRequest(m.Version, m.Tenant, m.TenantConfig)
	if er != nil {
		return nil, er
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.tenants[m.Tenant]; t != nil {
		// A released tombstone keeps re-opens at bay until the migration
		// settles: forking a fresh stream at sequence 0 here would split
		// the tenant's history across two servers.
		if t.isReleased() {
			return nil, &errResp{Code: codeDraining, Msg: "tenant " + m.Tenant + " is migrating"}
		}
		if !t.matches(&conf) {
			return nil, &errResp{Code: codeTenantExists,
				Msg: "tenant " + m.Tenant + " exists with a different configuration"}
		}
		return &openResp{NextSeq: t.nextSeq(), Resumed: true}, nil
	}
	pol, err := NewPolicy(conf.Policy)
	if err != nil {
		return nil, &errResp{Code: codeBadPolicy, Msg: err.Error()}
	}
	t := s.newTenant(m.Tenant, pol, conf)
	scfg := conf.stream()
	scfg.Probe = &t.probe
	if t.st, err = sched.NewStream(pol, scfg); err != nil {
		return nil, &errResp{Code: codeBadRequest, Msg: err.Error()}
	}
	if er := s.admitLocked(t, nil); er != nil {
		return nil, er
	}
	return &openResp{NextSeq: 0, Resumed: false}, nil
}

// admitLocked installs a new tenant (its stream already built): the
// draining and tenant-limit checks, the supply-bound-function
// feasibility check for a reserved tenant — atomic with registration,
// so an infeasible reservation is rejected before any state is created
// — the durable metadata plus, for a restore, the released blob as the
// first checkpoint (see tenant.persist), and registration with its
// shard. Callers hold s.mu.
func (s *Server) admitLocked(t *tenant, blob []byte) *errResp {
	if s.draining.Load() {
		return &errResp{Code: codeDraining, Msg: "server is draining"}
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		return &errResp{Code: codeOverloaded,
			Msg: fmt.Sprintf("tenant limit %d reached", s.cfg.MaxTenants)}
	}
	shard := s.shardIndex(t.id)
	if !t.res.IsZero() {
		// On a restore this re-runs admission against this server's
		// shard capacity: a migration target honors reservations it can
		// feasibly host and bounces the restore otherwise, so moving a
		// tenant can never overcommit a shard (the proxy surfaces the
		// typed rejection and restores the tenant back on its source).
		if err := s.tree.Admit(shard, t.id, t.res); err != nil {
			return admissionErrResp(err)
		}
	}
	if err := t.persist(blob); err != nil {
		if !t.res.IsZero() {
			s.tree.Release(shard, t.id)
		}
		return &errResp{Code: codeInternal, Msg: err.Error()}
	}
	s.tenants[t.id] = t
	s.sorted = nil
	s.shards[shard].add(t)
	return nil
}

// admissionErrResp converts a reservation-tree rejection into the
// typed wire error, copying the residual capacity when the failure is
// an infeasibility (as opposed to an internal double-admit).
func admissionErrResp(err error) *errResp {
	er := &errResp{Code: codeAdmission, Msg: err.Error()}
	var inf *bdr.InfeasibleError
	if errors.As(err, &inf) {
		// The client-side AdmissionError re-appends the residuals to its
		// message, so carry only the reason here to avoid stating them
		// twice.
		er.Msg = fmt.Sprintf("bdr: infeasible reservation on shard %d: %s", inf.Shard, inf.Reason)
		er.ResidualRate = inf.ResidualRate
		er.ResidualDelay = inf.MinDelay
	}
	return er
}

// closeTenant drains a tenant fully, removes it and deletes its durable
// files, returning the final Result. The drain and the close happen in
// one tenant-lock critical section (drainAndClose), so a concurrent
// Submit can never be admitted — and acknowledged — after the final
// Result was computed and then silently dropped with the tenant; it is
// either included in the Result or rejected as closed. removeFiles
// orders the log tombstone after every checkpoint a shard worker
// appended, so a restart cannot resurrect the tenant.
func (s *Server) closeTenant(id string) (*sched.Result, *errResp) {
	t := s.tenant(id)
	if t == nil {
		return nil, &errResp{Code: codeUnknownTenant, Msg: "unknown tenant " + id}
	}
	if t.isReleased() {
		return nil, &errResp{Code: codeDraining, Msg: "tenant " + id + " is migrating"}
	}
	res, err := t.drainAndClose()
	if err != nil {
		return nil, &errResp{Code: codeInternal, Msg: err.Error()}
	}
	s.mu.Lock()
	delete(s.tenants, id)
	s.sorted = nil
	if s.tree != nil {
		s.tree.Release(s.shardIndex(id), id)
	}
	s.mu.Unlock()
	s.shardFor(id).remove(t)
	t.removeFiles()
	return res, nil
}

// release hands tenant id's state out of this server: flush its queue,
// snapshot, tombstone it (the tenant struct stays in the table answering
// every later command with a retryable draining error), unregister it
// from its shard and delete its durable files. The returned response
// carries everything a restore on the migration target needs.
func (s *Server) release(id string) (*ReleasedTenant, *errResp) {
	t := s.tenant(id)
	if t == nil {
		return nil, &errResp{Code: codeUnknownTenant, Msg: "unknown tenant " + id}
	}
	resp, er := t.release()
	if er != nil {
		return nil, er
	}
	s.shardFor(id).remove(t)
	if s.tree != nil {
		// The reservation leaves with the tenant: the migration target
		// re-admits it from the response's reservation fields, and this
		// shard's residual opens up for new tenants immediately.
		s.mu.Lock()
		s.tree.Release(s.shardIndex(id), id)
		s.mu.Unlock()
	}
	t.removeFiles()
	s.logf("serve: released tenant %s at round %d", id, resp.NextSeq)
	return resp, nil
}

// restore installs a released tenant snapshot on this server: validate
// the declared configuration against the one embedded in the blob,
// rebuild the stream at its snapshotted round, persist metadata plus the
// blob as the tenant's first checkpoint (so a crash right after the
// route flip recovers at the restored round, not at zero), and register
// the tenant. Restoring over a released tombstone is allowed — that is
// how a tenant migrates back — but an open tenant rejects the restore.
func (s *Server) restore(m *restoreMsg) (*restoreResp, *errResp) {
	conf, er := s.checkRequest(m.Version, m.Tenant, m.TenantConfig)
	if er != nil {
		return nil, er
	}
	pol, err := NewPolicy(conf.Policy)
	if err != nil {
		return nil, &errResp{Code: codeBadPolicy, Msg: err.Error()}
	}
	// The blob embeds the configuration it was snapshotted under; a
	// mismatch with the declared one proves the blob belongs to some
	// other tenant (or got corrupted in transit) — reject before any
	// state is created.
	pcfg, polName, err := sched.PeekSnapshot(m.Blob)
	if err != nil {
		return nil, &errResp{Code: codeBadRequest, Msg: fmt.Sprintf("restore blob: %v", err)}
	}
	if !conf.sameStream(pcfg) {
		return nil, &errResp{Code: codeBadRequest,
			Msg: "restore blob configuration does not match the declared configuration"}
	}
	if polName != pol.Name() {
		return nil, &errResp{Code: codeBadRequest,
			Msg: fmt.Sprintf("restore blob policy %q does not match declared policy %q", polName, pol.Name())}
	}
	t := s.newTenant(m.Tenant, pol, conf)
	if t.st, err = sched.RestoreStream(pol, m.Blob, &t.probe); err != nil {
		return nil, &errResp{Code: codeBadRequest, Msg: fmt.Sprintf("restore blob: %v", err)}
	}
	s.mu.Lock()
	if old := s.tenants[m.Tenant]; old != nil && !old.isReleased() {
		er = &errResp{Code: codeTenantExists, Msg: "tenant " + m.Tenant + " is already open"}
	} else {
		er = s.admitLocked(t, m.Blob)
	}
	s.mu.Unlock()
	if er != nil {
		return nil, er
	}
	s.logf("serve: restored tenant %s at round %d", t.id, t.st.Round())
	return &restoreResp{NextSeq: t.st.Round()}, nil
}

// StartStatsLogger starts a goroutine that logs SchedSummary through
// Config.Logf every interval, joined to the server's worker group: it
// stops — and can no longer log — before Shutdown or Close returns.
// Call it before either; a non-positive interval, a draining server, or
// a nil Logf is a no-op. It is the engine behind rrserved -stats-every.
func (s *Server) StartStatsLogger(every time.Duration) {
	if every <= 0 || s.cfg.Logf == nil || s.draining.Load() {
		return
	}
	s.shardWG.Add(1)
	go func() {
		defer s.shardWG.Done()
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-s.stopShard:
				return
			case <-tk.C:
				s.logf("%s", s.SchedSummary())
			}
		}
	}()
}

// ——— Durable tenant metadata and recovery ———

// metaVersion is the tenant-metadata format (policy spec, queue cap,
// stream configuration, weight, BDR reservation). A file of any other
// version fails recovery loudly.
const metaVersion = 3

// writeMeta persists the open-time facts a checkpoint blob does not
// carry — the policy spec string, queue cap, service weight and BDR
// reservation — plus the stream configuration, so a restart can
// rebuild a tenant that crashed before its first checkpoint. The
// payload rides in the same CRC-checked container as checkpoints,
// written atomically.
func writeMeta(path string, conf *TenantConfig) error {
	e := snap.NewEncoder()
	e.Int(metaVersion)
	conf.encode(e)
	if err := trace.SaveCheckpointState(path, e.Bytes()); err != nil {
		return fmt.Errorf("serve: writing tenant metadata: %w", err)
	}
	return nil
}

func readMeta(path string) (conf TenantConfig, err error) {
	f, err := os.Open(path)
	if err != nil {
		return conf, err
	}
	defer f.Close()
	payload, err := trace.ReadCheckpoint(f)
	if err != nil {
		return conf, fmt.Errorf("serve: reading tenant metadata %s: %w", path, err)
	}
	d := snap.NewDecoder(payload)
	if v := d.Int(); d.Err() == nil && v != metaVersion {
		return conf, fmt.Errorf("serve: tenant metadata %s: version %d, this build reads %d", path, v, metaVersion)
	}
	conf.decode(d)
	if err := d.Done(); err != nil {
		return conf, fmt.Errorf("serve: tenant metadata %s: %w", path, err)
	}
	return conf, nil
}

// recover rebuilds every tenant whose metadata file survives in the
// checkpoint directory: from its checkpoint when one exists, or fresh
// at round 0 when the process died before the first checkpoint. A
// corrupt file fails recovery loudly — silently dropping a tenant would
// lose its stream.
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.cfg.CheckpointDir)
	if err != nil {
		return fmt.Errorf("serve: scanning checkpoint dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".meta") {
			continue
		}
		id := strings.TrimSuffix(name, ".meta")
		t, err := s.recoverTenant(id)
		if err != nil {
			return err
		}
		s.tenants[id] = t
		s.sorted = nil
		s.shardFor(id).add(t)
		s.logf("serve: recovered tenant %s at round %d", id, t.st.Round())
	}
	return nil
}

func (s *Server) recoverTenant(id string) (*tenant, error) {
	metaPath := filepath.Join(s.cfg.CheckpointDir, id+".meta")
	conf, err := readMeta(metaPath)
	if err != nil {
		return nil, err
	}
	pol, err := NewPolicy(conf.Policy)
	if err != nil {
		return nil, fmt.Errorf("serve: recovering tenant %s: %w", id, err)
	}
	t := s.newTenant(id, pol, conf)
	if res := t.res; !res.IsZero() {
		// Re-admit the durable reservation. Failure is loud: it means
		// the server was restarted with a smaller BDR capacity (or with
		// -bdr off) than its recovered tenants were promised, and
		// silently hosting them unreserved would break the guarantee.
		if !s.cfg.BDR {
			return nil, fmt.Errorf("serve: tenant %s holds a BDR reservation (rate %g, delay %g) but the server runs without -bdr",
				id, res.Rate, res.Delay)
		}
		if aerr := s.tree.Admit(s.shardIndex(id), id, res); aerr != nil {
			return nil, fmt.Errorf("serve: recovering tenant %s: %w", id, aerr)
		}
	}

	// A missing checkpoint (process died before the first one, or the
	// log holds only a tombstone) recovers the tenant fresh at round 0 —
	// the metadata file is the record of its existence.
	blob, round, ok, err := s.clog.Latest(id)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %s: checkpoint log: %w", id, err)
	}
	if !ok {
		scfg := conf.stream()
		scfg.Probe = &t.probe
		if t.st, err = sched.NewStream(pol, scfg); err != nil {
			return nil, fmt.Errorf("serve: tenant %s: %w", id, err)
		}
		return t, nil
	}
	// Cheap cross-check before the full restore: the checkpoint must
	// have been taken under the configuration the metadata records.
	pcfg, _, err := sched.PeekSnapshot(blob)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %s: %w", id, err)
	}
	if !conf.sameStream(pcfg) {
		return nil, fmt.Errorf("serve: tenant %s: checkpoint configuration does not match metadata", id)
	}
	if t.st, err = sched.RestoreStream(pol, blob, &t.probe); err != nil {
		return nil, fmt.Errorf("serve: tenant %s: %w", id, err)
	}
	if round != t.st.Round() {
		return nil, fmt.Errorf("serve: tenant %s: checkpoint log records round %d but the blob restores at round %d", id, round, t.st.Round())
	}
	t.lastCkpt = round
	return t, nil
}

// ——— Request processing ———

// connState is the per-connection scratch reused across frames so a
// steady-state submit loop does not allocate per request.
type connState struct {
	sub   submitMsg
	batch batchMsg
}

// connWriter drains a connection's staged responses onto the wire,
// flushing only when the queue runs dry — so a pipelining client's K
// responses coalesce into one Flush (and often one syscall) instead of
// K. Written buffers are recycled through free back to the reader.
// Exits on the first write error or when resp closes (reader gone).
func connWriter(bw *bufio.Writer, resp <-chan []byte, free chan<- []byte) {
	for body := range resp {
		err := writeFrame(bw, body)
		select {
		case free <- body:
		default:
		}
		if err != nil {
			return
		}
		if len(resp) == 0 {
			if bw.Flush() != nil {
				return
			}
		}
	}
	bw.Flush()
}

// handleConn runs one connection: a reader loop (this goroutine)
// decoding and processing frames in arrival order, and a writer
// goroutine flushing staged responses with coalescing. Processing stays
// in the reader, so requests on one connection are still applied in the
// order they were sent — which is what lets a pipelined submit window
// carry strictly increasing sequence numbers — while the bounded
// response queue lets up to ConnWindow requests be in flight before
// backpressure stops the reader.
func (s *Server) handleConn(c net.Conn) {
	defer s.connWG.Done()
	br := bufio.NewReader(c)
	bw := bufio.NewWriter(c)
	resp := make(chan []byte, s.cfg.ConnWindow)
	free := make(chan []byte, s.cfg.ConnWindow)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		connWriter(bw, resp, free)
	}()
	defer func() {
		// Let the writer drain what is staged (a poisoned request's
		// error response must still reach the peer), but bound how long
		// a wedged peer can hold the handler, then tear down.
		close(resp)
		c.SetWriteDeadline(time.Now().Add(5 * time.Second))
		<-writerDone
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	enc := snap.NewEncoder()
	var cs connState
	var buf []byte
	for {
		var err error
		buf, err = readFrame(br, buf)
		if err != nil {
			return // clean EOF or framing error; either way the conn is done
		}
		enc.Reset()
		closeAfter := s.process(buf, &cs, enc)
		var out []byte
		select {
		case out = <-free:
		default:
		}
		out = append(out[:0], enc.Bytes()...)
		select {
		case resp <- out:
		case <-writerDone: // writer hit a write error; conn is dead
			return
		}
		if closeAfter {
			return
		}
	}
}

// process handles one request frame, encoding the response into enc. It
// reports whether the connection must close (a protocol violation, as
// opposed to a well-formed request the server rejects). A msgTagged
// envelope is unwrapped here and its tag echoed onto the response, so
// every handler below is tag-agnostic. It never panics, whatever the
// bytes — pinned by FuzzFrameDecode.
func (s *Server) process(body []byte, cs *connState, enc *snap.Encoder) (closeConn bool) {
	d := snap.NewDecoder(body)
	var tag uint64
	tagged := false
	bad := func(msg string) bool {
		enc.Reset()
		if tagged {
			enc.Uint64(msgTagged)
			enc.Uint64(tag)
		}
		(&errResp{Code: codeBadRequest, Msg: msg}).encode(enc)
		return true
	}
	typ := d.Uint64()
	if d.Err() != nil {
		return bad("truncated message type")
	}
	if typ == msgTagged {
		tag = d.Uint64()
		if d.Err() != nil {
			return bad("truncated request tag")
		}
		tagged = true
		enc.Uint64(msgTagged)
		enc.Uint64(tag)
		typ = d.Uint64()
		if d.Err() != nil {
			return bad("truncated message type")
		}
		if typ == msgTagged {
			return bad("nested tagged envelope")
		}
	}
	switch typ {
	case msgOpen:
		var m openMsg
		m.decode(d)
		if d.Done() != nil {
			return bad("malformed open")
		}
		resp, er := s.open(&m)
		if er != nil {
			er.encode(enc)
		} else {
			resp.encode(enc)
		}
	case msgSubmit:
		cs.sub.decode(d)
		if d.Done() != nil {
			return bad("malformed submit")
		}
		t := s.tenant(cs.sub.Tenant)
		if t == nil {
			(&errResp{Code: codeUnknownTenant, Msg: "unknown tenant " + cs.sub.Tenant}).encode(enc)
			return false
		}
		round, depth, er := t.submit(cs.sub.Seq, cs.sub.Arrivals, s.draining.Load())
		if er != nil {
			er.encode(enc)
			return false
		}
		s.shardFor(cs.sub.Tenant).poke()
		(&submitResp{Round: round, QueueDepth: depth}).encode(enc)
	case msgSubmitBatch:
		cs.batch.decode(d)
		if d.Done() != nil {
			// Atomic rejection: the batch was not admitted round by round
			// as it decoded, so a malformed tail cannot leave a partial
			// sequence advance behind.
			return bad("malformed submit batch")
		}
		t := s.tenant(cs.batch.Tenant)
		if t == nil {
			(&errResp{Code: codeUnknownTenant, Msg: "unknown tenant " + cs.batch.Tenant}).encode(enc)
			return false
		}
		admitted, round, depth, er := t.submitBatch(cs.batch.Seq, cs.batch.Ticks, s.draining.Load())
		if admitted > 0 {
			s.shardFor(cs.batch.Tenant).poke()
		}
		(&batchResp{Admitted: admitted, Round: round, QueueDepth: depth, Err: er}).encode(enc)
	case msgStats:
		var m tenantMsg
		m.decode(d)
		if d.Done() != nil {
			return bad("malformed stats request")
		}
		rows, er := s.statsRows(m.Tenant)
		if er != nil {
			er.encode(enc)
			return false
		}
		s.fillServiceShares(rows, m.Tenant == "")
		statsResp(rows).encode(enc)
	case msgResult, msgDrain, msgCloseTenant, msgSnapshot:
		var m tenantMsg
		m.decode(d)
		if d.Done() != nil {
			return bad("malformed tenant command")
		}
		s.tenantCommand(typ, m.Tenant, enc)
	case msgPing:
		if d.Done() != nil {
			return bad("malformed ping")
		}
		enc.Uint64(msgPing)
		enc.Bool(s.draining.Load())
		enc.Int(s.NumTenants())
	case msgDuraStats:
		if d.Done() != nil {
			return bad("malformed durability stats request")
		}
		st := s.DuraStats()
		st.encode(enc)
	case msgRestore:
		var m restoreMsg
		m.decode(d)
		if d.Done() != nil {
			return bad("malformed restore")
		}
		resp, er := s.restore(&m)
		if er != nil {
			er.encode(enc)
		} else {
			resp.encode(enc)
		}
	case msgRelease:
		var m tenantMsg
		m.decode(d)
		if d.Done() != nil {
			return bad("malformed release")
		}
		resp, er := s.release(m.Tenant)
		if er != nil {
			er.encode(enc)
		} else {
			resp.encode(enc)
		}
	default:
		return bad(fmt.Sprintf("unknown message type %d", typ))
	}
	return false
}

// statsRows builds the stats rows for one tenant (id non-empty) or all.
// Released migration tombstones are skipped — their live row belongs to
// the server the tenant migrated to.
func (s *Server) statsRows(id string) ([]TenantStats, *errResp) {
	if id != "" {
		t := s.tenant(id)
		if t == nil {
			return nil, &errResp{Code: codeUnknownTenant, Msg: "unknown tenant " + id}
		}
		if t.isReleased() {
			return nil, &errResp{Code: codeDraining, Msg: "tenant " + id + " is migrating"}
		}
		return []TenantStats{t.stats()}, nil
	}
	var rows []TenantStats
	for _, t := range s.tenantList() {
		if t.isReleased() {
			continue
		}
		rows = append(rows, t.stats())
	}
	return rows, nil
}

// fillServiceShares computes each row's ServiceShare — its fraction of
// every round tick the server has applied — against the live all-tenant
// total, so even a single-tenant row reports its server-wide share.
// allRows says rows already covers every tenant, letting the total come
// from the rows themselves instead of a second locked walk.
func (s *Server) fillServiceShares(rows []TenantStats, allRows bool) {
	var total float64
	if allRows {
		for i := range rows {
			total += float64(rows[i].ServedRounds)
		}
	} else {
		for _, t := range s.tenantList() {
			total += float64(t.servedRounds())
		}
	}
	if total == 0 {
		return
	}
	for i := range rows {
		rows[i].ServiceShare = float64(rows[i].ServedRounds) / total
	}
}

// DuraStats reports the group-commit checkpoint log's cumulative
// counters, or zeros (Mode "off") when durability is disabled.
func (s *Server) DuraStats() DuraStats {
	if s.clog == nil {
		return DuraStats{Mode: "off"}
	}
	ls := s.clog.Stats()
	return DuraStats{
		Mode:        "log",
		Appends:     ls.Appends,
		Bytes:       ls.Bytes,
		Fsyncs:      ls.Fsyncs,
		Deltas:      ls.Deltas,
		Rotations:   ls.Rotations,
		Compactions: ls.Compactions,
		Segments:    int64(ls.Segments),
	}
}

// SchedSummary returns a one-line cross-tenant scheduling summary —
// allocator, tenant count, aggregate backlog, and the worst live and
// high-water delay factors with the tenants holding them — for periodic
// operational logging (rrserved -stats-every).
func (s *Server) SchedSummary() string {
	rows, _ := s.statsRows("")
	var backlog int64
	var worst, worstHi float64
	worstID, worstHiID := "-", "-"
	for _, r := range rows {
		backlog += int64(r.QueueDepth)
		if worstID == "-" || r.DelayFactor > worst {
			worst, worstID = r.DelayFactor, r.ID
		}
		if worstHiID == "-" || r.MaxDelayFactor > worstHi {
			worstHi, worstHiID = r.MaxDelayFactor, r.ID
		}
	}
	return fmt.Sprintf("sched: alloc=%s tenants=%d backlog=%d worst_df=%.3f(%s) max_df=%.3f(%s)",
		s.alloc.Name(), len(rows), backlog, worst, worstID, worstHi, worstHiID)
}

// tenantCommand executes the single-tenant commands that share the
// tenantMsg request shape.
func (s *Server) tenantCommand(typ uint64, id string, enc *snap.Encoder) {
	if typ == msgCloseTenant {
		res, er := s.closeTenant(id)
		if er != nil {
			er.encode(enc)
		} else {
			encodeResult(enc, msgCloseTenant, res)
		}
		return
	}
	t := s.tenant(id)
	if t == nil {
		(&errResp{Code: codeUnknownTenant, Msg: "unknown tenant " + id}).encode(enc)
		return
	}
	if t.isReleased() {
		(&errResp{Code: codeDraining, Msg: "tenant " + id + " is migrating"}).encode(enc)
		return
	}
	switch typ {
	case msgResult:
		res, err := t.result()
		if err != nil {
			(&errResp{Code: codeInternal, Msg: err.Error()}).encode(enc)
			return
		}
		encodeResult(enc, msgResult, res)
	case msgDrain:
		res, err := t.drain()
		if err != nil {
			(&errResp{Code: codeInternal, Msg: err.Error()}).encode(enc)
			return
		}
		encodeResult(enc, msgDrain, res)
	case msgSnapshot:
		blob, err := t.snapshot()
		if err != nil {
			(&errResp{Code: codeInternal, Msg: err.Error()}).encode(enc)
			return
		}
		enc.Uint64(msgSnapshot)
		enc.Blob(blob)
	}
}
