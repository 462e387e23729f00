package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/workload"
)

// startServer boots a server on a loopback port and serves until the
// test ends.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return s
}

func dialTest(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func testInstance(t *testing.T, rounds int, tenant int) *sched.Instance {
	t.Helper()
	inst, err := workload.Tenant("router", workload.Params{Rounds: rounds, Seed: 7}, tenant)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func tcFor(inst *sched.Instance) TenantConfig {
	return TenantConfig{Policy: "dlruedf", N: 8, Delta: inst.Delta, Delays: inst.Delays}
}

// feed submits inst's whole trace starting at seq from, waiting out any
// overload shedding.
func feed(t *testing.T, c *Client, id string, inst *sched.Instance, from int) {
	t.Helper()
	for seq := from; seq < len(inst.Requests); {
		_, _, err := c.Submit(id, seq, inst.Requests[seq])
		switch {
		case err == nil:
			seq++
		case errors.Is(err, ErrOverloaded):
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("submit %s seq %d: %v", id, seq, err)
		}
	}
}

func TestServerRoundTrip(t *testing.T) {
	inst := testInstance(t, 64, 0)
	s := startServer(t, Config{})
	c := dialTest(t, s)
	tc := tcFor(inst)

	next, resumed, err := c.Open("alpha", tc)
	if err != nil || next != 0 || resumed {
		t.Fatalf("open = (%d, %v, %v), want (0, false, nil)", next, resumed, err)
	}
	// Re-opening with the same configuration re-attaches.
	if _, resumed, err = c.Open("alpha", tc); err != nil || !resumed {
		t.Fatalf("re-open = (resumed %v, %v), want (true, nil)", resumed, err)
	}
	// A conflicting configuration is rejected.
	bad := tc
	bad.N = 4
	if _, _, err = c.Open("alpha", bad); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("conflicting open = %v, want ErrTenantExists", err)
	}

	feed(t, c, "alpha", inst, 0)

	rows, err := c.Stats("alpha")
	if err != nil || len(rows) != 1 {
		t.Fatalf("stats = (%d rows, %v)", len(rows), err)
	}
	if rows[0].NextSeq != len(inst.Requests) {
		t.Fatalf("NextSeq = %d, want %d", rows[0].NextSeq, len(inst.Requests))
	}
	if rows[0].QueueCap != 64 { // server default
		t.Fatalf("QueueCap = %d, want 64", rows[0].QueueCap)
	}

	res, err := c.DrainTenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := LocalReference(inst, tc.Policy, tc.N, tc.Speed)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(ref, res) {
		t.Fatalf("drained result differs from local replay:\n server %+v\n local  %+v", res, ref)
	}
	// Draining again is a no-op returning the identical result, so a
	// client retrying a drain whose ack was lost cannot skew anything.
	res2, err := c.DrainTenant("alpha")
	if err != nil || !resultsEqual(res, res2) {
		t.Fatalf("re-drain = (%+v, %v), want the same result", res2, err)
	}
	if got, err := c.Result("alpha"); err != nil || !resultsEqual(res, got) {
		t.Fatalf("Result = (%+v, %v), want the drained result", got, err)
	}

	// The snapshot a client mirrors is the restorable stream payload.
	blob, err := c.Snapshot("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if cfg, pol, err := sched.PeekSnapshot(blob); err != nil || cfg.N != tc.N || pol == "" {
		t.Fatalf("snapshot peek = (%+v, %q, %v)", cfg, pol, err)
	}

	if draining, n, err := c.Ping(); err != nil || draining || n != 1 {
		t.Fatalf("ping = (%v, %d, %v), want (false, 1, nil)", draining, n, err)
	}

	final, err := c.CloseTenant("alpha")
	if err != nil || !resultsEqual(res, final) {
		t.Fatalf("close = (%+v, %v), want the drained result", final, err)
	}
	if _, err := c.Stats("alpha"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("stats after close = %v, want ErrUnknownTenant", err)
	}
}

func TestServerRejections(t *testing.T) {
	inst := testInstance(t, 8, 0)
	s := startServer(t, Config{})
	c := dialTest(t, s)
	tc := tcFor(inst)

	var re *RemoteError
	if _, _, err := c.Submit("ghost", 0, nil); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("submit to unknown tenant = %v", err)
	}
	if _, err := c.DrainTenant("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("drain unknown tenant = %v", err)
	}
	badPol := tc
	badPol.Policy = "no-such-policy"
	if _, _, err := c.Open("a", badPol); !errors.As(err, &re) || re.Code != codeBadPolicy {
		t.Fatalf("open bad policy = %v", err)
	}
	if _, _, err := c.Open("no/slashes", tc); !errors.As(err, &re) || re.Code != codeBadRequest {
		t.Fatalf("open bad tenant ID = %v", err)
	}
	badCfg := tc
	badCfg.N = -3
	if _, _, err := c.Open("a", badCfg); !errors.As(err, &re) || re.Code != codeBadRequest {
		t.Fatalf("open bad config = %v", err)
	}
	heavy := tc
	heavy.Weight = maxTenantWeight + 1
	if _, _, err := c.Open("a", heavy); !errors.As(err, &re) || re.Code != codeBadRequest {
		t.Fatalf("open oversized weight = %v", err)
	}

	if _, _, err := c.Open("a", tc); err != nil {
		t.Fatal(err)
	}
	// An open without a weight runs at the default weight 1.
	if rows, err := c.Stats("a"); err != nil || len(rows) != 1 || rows[0].Weight != 1 || rows[0].MinDelay <= 0 {
		t.Fatalf("stats of a default-weight tenant = (%+v, %v)", rows, err)
	}
	// Out-of-sequence submits carry the resume point both ways.
	var bs *BadSeqError
	if _, _, err := c.Submit("a", 5, nil); !errors.As(err, &bs) || bs.Expected != 0 {
		t.Fatalf("future seq = %v", err)
	}
	if _, _, err := c.Submit("a", 0, inst.Requests[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Submit("a", 0, inst.Requests[0]); !errors.As(err, &bs) || bs.Expected != 1 {
		t.Fatalf("duplicate seq = %v", err)
	}
	// Arrivals are validated at admission: color out of range.
	if _, _, err := c.Submit("a", 1, sched.Request{{Color: 99, Count: 1}}); !errors.As(err, &re) || re.Code != codeInvalidArrival {
		t.Fatalf("invalid arrival = %v", err)
	}
}

// TestServerOverload pins the admission-control contract: with round
// application frozen (paced at one tick per hour), a tenant's queue
// fills to its cap and every further submit is shed with ErrOverloaded
// — bounded memory, no buffering — while an unaffected tenant on the
// same server is untouched, and the shed tenant's eventual results
// remain exactly the admitted prefix.
func TestServerOverload(t *testing.T) {
	const qcap = 4
	s := startServer(t, Config{RoundInterval: time.Hour})
	c := dialTest(t, s)

	instA := testInstance(t, 16, 0)
	instB := testInstance(t, 16, 1)
	tcA := tcFor(instA)
	tcA.QueueCap = qcap
	tcB := tcFor(instB)
	if _, _, err := c.Open("hot", tcA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Open("calm", tcB); err != nil {
		t.Fatal(err)
	}

	// Fill the hot tenant's queue; nothing applies, so cap submits are
	// admitted and each one past it is shed.
	for seq := 0; seq < qcap; seq++ {
		_, depth, err := c.Submit("hot", seq, instA.Requests[seq])
		if err != nil {
			t.Fatalf("submit %d: %v", seq, err)
		}
		if depth != seq+1 {
			t.Fatalf("depth after submit %d = %d, want %d", seq, depth, seq+1)
		}
	}
	for i := 0; i < 10; i++ {
		if _, _, err := c.Submit("hot", qcap, instA.Requests[qcap]); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit past cap = %v, want ErrOverloaded", err)
		}
	}
	rows, err := c.Stats("hot")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].QueueDepth != qcap || rows[0].Overloads != 10 {
		t.Fatalf("stats = depth %d overloads %d, want %d and 10", rows[0].QueueDepth, rows[0].Overloads, qcap)
	}
	// The backing queue never grows past the compaction bound even
	// across repeated fill/drain cycles.
	if got := len(s.tenant("hot").queue); got > 2*qcap {
		t.Fatalf("queue backing length %d exceeds 2×cap", got)
	}

	// The calm tenant admits below its (default) cap without shedding.
	feed(t, c, "calm", instB, 0)

	// Draining applies exactly what was admitted: the hot tenant's
	// result is the qcap-round prefix, the calm tenant's the full trace.
	prefix := *instA
	prefix.Requests = instA.Requests[:qcap]
	wantHot, err := LocalReference(&prefix, tcA.Policy, tcA.N, tcA.Speed)
	if err != nil {
		t.Fatal(err)
	}
	gotHot, err := c.DrainTenant("hot")
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(wantHot, gotHot) {
		t.Fatalf("shed tenant result:\n server %+v\n local  %+v", gotHot, wantHot)
	}
	wantCalm, err := LocalReference(instB, tcB.Policy, tcB.N, tcB.Speed)
	if err != nil {
		t.Fatal(err)
	}
	gotCalm, err := c.DrainTenant("calm")
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(wantCalm, gotCalm) {
		t.Fatalf("unaffected tenant result:\n server %+v\n local  %+v", gotCalm, wantCalm)
	}
}

// TestServeLoad runs the load generator against a live server — the
// sustained-rate path of make servesmoke: 64 concurrent tenants each
// replaying an independent trace, verified bit-identical against local
// replays afterwards.
func TestServeLoad(t *testing.T) {
	s := startServer(t, Config{})
	rep, err := RunLoad(LoadConfig{
		Addr:    s.Addr().String(),
		Tenants: 64,
		Params:  workload.Params{Rounds: 50, Seed: 11},
		Verify:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 0 {
		t.Fatalf("tenants with non-identical results: %v", rep.Mismatches)
	}
	if want := int64(64 * 50); rep.RoundsSent != want {
		t.Fatalf("RoundsSent = %d, want %d", rep.RoundsSent, want)
	}
	if rep.AchievedRate <= 0 || rep.Latency.N == 0 {
		t.Fatalf("report missing throughput/latency: %+v", rep)
	}
	if s.NumTenants() != 64 {
		t.Fatalf("NumTenants = %d, want 64", s.NumTenants())
	}
}

// restartLoad drives RunLoad against a server, stops that server
// mid-run the way stop says (graceful Shutdown or crash-like Close),
// boots a replacement on the same address and checkpoint directory, and
// requires every tenant's final result to be bit-identical to a local
// replay — no round lost, none duplicated.
func restartLoad(t *testing.T, cfg Config, stop func(*Server) error, mut ...func(*LoadConfig)) *LoadReport {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s1, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done1 := make(chan error, 1)
	go func() { done1 <- s1.Serve() }()
	addr := s1.Addr().String()

	lcfg := LoadConfig{
		Addr:         addr,
		Tenants:      64,
		Params:       workload.Params{Rounds: 80, Seed: 5},
		Rate:         120, // ~670ms of paced submits per tenant
		Verify:       true,
		RetryTimeout: 20 * time.Second,
	}
	for _, m := range mut {
		m(&lcfg)
	}
	var rep *LoadReport
	var lerr error
	loadDone := make(chan struct{})
	go func() { defer close(loadDone); rep, lerr = RunLoad(lcfg) }()

	time.Sleep(250 * time.Millisecond) // land the stop mid-run
	if err := stop(s1); err != nil {
		t.Fatal(err)
	}
	if err := <-done1; err != nil {
		t.Fatal(err)
	}

	cfg.Addr = addr
	s2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- s2.Serve() }()
	t.Cleanup(func() {
		s2.Close()
		if err := <-done2; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	if n := s2.NumTenants(); n != 64 {
		t.Fatalf("recovered %d tenants, want 64", n)
	}

	<-loadDone
	if lerr != nil {
		t.Fatal(lerr)
	}
	if len(rep.Mismatches) != 0 {
		t.Fatalf("tenants with non-identical results after restart: %v", rep.Mismatches)
	}
	return rep
}

// TestServeGracefulRestart: SIGTERM-style drain mid-load. Shutdown
// flushes every queued tick and writes final checkpoints, so the
// restarted server resumes each tenant exactly where it stopped and no
// round is replayed or lost.
func TestServeGracefulRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("restart integration test")
	}
	rep := restartLoad(t, Config{
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 1 << 30, // only the final flush checkpoints
	}, (*Server).Shutdown)
	// A graceful drain loses nothing, so no admitted round is ever
	// submitted twice: at most Tenants×Rounds successful submits. (A
	// tenant whose in-flight submit was admitted just as the server
	// stopped can lose that one acknowledgement — at most once each.)
	want := int64(64 * 80)
	if rep.RoundsSent > want || rep.RoundsSent < want-64 {
		t.Fatalf("RoundsSent = %d, want %d (graceful drain must not lose or replay rounds)", rep.RoundsSent, want)
	}
}

// TestServeCrashRestart: fault injection between round ticks. Close
// drops queues and everything past each tenant's last periodic
// checkpoint; drivers rewind to the server's resume point and re-feed,
// and the final results are still bit-identical.
func TestServeCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("restart integration test")
	}
	rep := restartLoad(t, Config{
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 8,
	}, (*Server).Close)
	// The crash loses rounds past the checkpoints, so drivers re-feed:
	// at least the full trace volume, minus at most one lost
	// acknowledgement per tenant for the submit in flight at the crash.
	if want := int64(64*80) - 64; rep.RoundsSent < want {
		t.Fatalf("RoundsSent = %d, want ≥ %d", rep.RoundsSent, want)
	}
}

// TestServeGracefulRestartPipelined is the graceful restart harness
// through the pipelined driver: a window of in-flight frames can lose
// its acknowledgements when the drain closes the connection, so the
// accounting bound widens by window×batch per tenant — but results must
// still verify bit-identical, which is the exactly-once claim.
func TestServeGracefulRestartPipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("restart integration test")
	}
	const window, batch = 8, 4
	rep := restartLoad(t, Config{
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 1 << 30,
	}, (*Server).Shutdown, func(lc *LoadConfig) {
		lc.Pipeline = window
		lc.Batch = batch
	})
	want := int64(64 * 80)
	if slack := int64(64 * window * batch); rep.RoundsSent > want || rep.RoundsSent < want-slack {
		t.Fatalf("RoundsSent = %d, want within [%d, %d]", rep.RoundsSent, want-slack, want)
	}
}

// TestServeCrashRestartPipelined: fault injection under the pipelined
// driver. The crash can drop both checkpoint-uncovered rounds (re-fed,
// so counted twice) and a window of unacknowledged admissions per
// tenant (never counted), so only the widened lower bound holds — and
// the bit-identical verification inside restartLoad.
func TestServeCrashRestartPipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("restart integration test")
	}
	const window, batch = 8, 4
	rep := restartLoad(t, Config{
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 8,
	}, (*Server).Close, func(lc *LoadConfig) {
		lc.Pipeline = window
		lc.Batch = batch
	})
	if want := int64(64*80) - int64(64*window*batch); rep.RoundsSent < want {
		t.Fatalf("RoundsSent = %d, want ≥ %d", rep.RoundsSent, want)
	}
}

// TestCloseTenantSubmitRace pins the exactly-once contract of
// CloseTenant against concurrent submits: every round tick acknowledged
// with success is included in the final drained stream. The old
// two-acquisition close (drain, unlock, re-lock, mark closed) had a
// window where a submit could be admitted — and acknowledged — after
// the drain computed the final Result, then be dropped with the tenant.
// Each acknowledged tick here carries one job and the stream is fully
// drained at close, so conservation is exact: Executed+Dropped must
// equal the acknowledged count.
func TestCloseTenantSubmitRace(t *testing.T) {
	s := startServer(t, Config{DefaultQueueCap: 1024})
	closer := dialTest(t, s)
	submitter := dialTest(t, s)
	tc := TenantConfig{Policy: "edf", N: 2, Delta: 2, Delays: []int{64, 64}}
	tick := sched.Request{{Color: 0, Count: 1}}

	for iter := 0; iter < 40; iter++ {
		id := fmt.Sprintf("race-%02d", iter)
		if _, _, err := closer.Open(id, tc); err != nil {
			t.Fatal(err)
		}
		acked := make(chan int, 1)
		go func() {
			n := 0
			for seq := 0; ; {
				_, _, err := submitter.Submit(id, seq, tick)
				switch {
				case err == nil:
					n++
					seq++
				case errors.Is(err, ErrOverloaded):
					time.Sleep(50 * time.Microsecond)
				case errors.Is(err, ErrUnknownTenant):
					acked <- n
					return
				default:
					t.Errorf("submit %s seq %d: %v", id, seq, err)
					acked <- n
					return
				}
			}
		}()
		// Let the submitter build momentum, then close mid-stream.
		time.Sleep(time.Duration(iter%5) * 100 * time.Microsecond)
		res, err := closer.CloseTenant(id)
		if err != nil {
			t.Fatal(err)
		}
		n := <-acked
		if got := res.Executed + res.Dropped; got != n {
			t.Fatalf("iteration %d: %d jobs acknowledged but final result accounts for %d (executed %d, dropped %d)",
				iter, n, got, res.Executed, res.Dropped)
		}
	}
}

// TestShutdownAcceptStorm pins the accept/stop race: connections
// accepted while Shutdown runs are either swept (and their handlers
// awaited) or refused — never registered after the close sweep so their
// handler outlives Shutdown. Failure modes of the old ordering include
// a leaked registered connection and connWG.Add racing connWG.Wait.
func TestShutdownAcceptStorm(t *testing.T) {
	s := startServer(t, Config{})
	addr := s.Addr().String()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, err := Dial(addr)
				if err != nil {
					return // listener closed; storm over
				}
				c.Ping() // errors once draining; keep dialing regardless
				c.Close()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the storm land on the accept loop
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// connWG.Wait has returned, so every handler deregistered itself.
	s.mu.Lock()
	n := len(s.conns)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d connections still registered after Shutdown", n)
	}
}

// TestServerRecovery pins the durability lifecycle at the single-tenant
// level: a crash before the first checkpoint recovers the tenant fresh
// from its metadata; a crash after rounds recovers it at the checkpoint;
// CloseTenant removes its durable files.
func TestServerRecovery(t *testing.T) {
	dir := t.TempDir()
	inst := testInstance(t, 24, 0)
	tc := tcFor(inst)
	ref, err := LocalReference(inst, tc.Policy, tc.N, tc.Speed)
	if err != nil {
		t.Fatal(err)
	}

	// Crash before any checkpoint: only the metadata file survives.
	s1 := startServer(t, Config{CheckpointDir: dir, CheckpointEvery: 1 << 30})
	c1 := dialTest(t, s1)
	if _, _, err := c1.Open("solo", tc); err != nil {
		t.Fatal(err)
	}
	feed(t, c1, "solo", inst, 0)
	s1.Close()
	if _, err := os.Stat(filepath.Join(dir, "solo.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file exists before first checkpoint interval (stat err %v)", err)
	}

	// The restart rebuilds the tenant at round 0; the client re-feeds
	// the whole trace and the result matches the reference exactly.
	s2 := startServer(t, Config{CheckpointDir: dir, CheckpointEvery: 4})
	c2 := dialTest(t, s2)
	next, resumed, err := c2.Open("solo", tc)
	if err != nil || !resumed || next != 0 {
		t.Fatalf("open after meta-only recovery = (%d, %v, %v), want (0, true, nil)", next, resumed, err)
	}
	feed(t, c2, "solo", inst, 0)
	res, err := c2.DrainTenant("solo")
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(ref, res) {
		t.Fatalf("post-recovery result differs:\n server %+v\n local  %+v", res, ref)
	}
	s2.Close()

	// The drain wrote a final checkpoint; a third server resumes the
	// tenant at its drained round with the same totals.
	s3 := startServer(t, Config{CheckpointDir: dir})
	c3 := dialTest(t, s3)
	if _, resumed, err := c3.Open("solo", tc); err != nil || !resumed {
		t.Fatalf("open after checkpoint recovery = (resumed %v, %v)", resumed, err)
	}
	res3, err := c3.Result("solo")
	if err != nil || !resultsEqual(ref, res3) {
		t.Fatalf("recovered result = (%+v, %v), want the drained result", res3, err)
	}

	// CloseTenant deletes the durable files: a fourth server is empty.
	if _, err := c3.CloseTenant("solo"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"solo.meta", "solo.ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Fatalf("%s survives CloseTenant (stat err %v)", f, err)
		}
	}
	s3.Close()
	s4 := startServer(t, Config{CheckpointDir: dir})
	if n := s4.NumTenants(); n != 0 {
		t.Fatalf("server after CloseTenant recovered %d tenants, want 0", n)
	}
}

// TestServerDrainingRejectsWork: once Shutdown begins, submits and new
// opens are refused with ErrDraining while re-attach still answers.
func TestServerDraining(t *testing.T) {
	inst := testInstance(t, 8, 0)
	s := startServer(t, Config{})
	c := dialTest(t, s)
	tc := tcFor(inst)
	if _, _, err := c.Open("a", tc); err != nil {
		t.Fatal(err)
	}
	feed(t, c, "a", inst, 0)
	s.draining.Store(true) // the first thing stop() does
	if _, _, err := c.Submit("a", len(inst.Requests), nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	if _, _, err := c.Open("b", tc); !errors.Is(err, ErrDraining) {
		t.Fatalf("open while draining = %v, want ErrDraining", err)
	}
	if _, resumed, err := c.Open("a", tc); err != nil || !resumed {
		t.Fatalf("re-attach while draining = (resumed %v, %v), want (true, nil)", resumed, err)
	}
}
