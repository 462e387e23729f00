package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/sched"
)

// logTestConfig is a group-commit-log server configuration tuned so a
// short test exercises the whole machinery: every round is
// checkpoint-due, segments rotate after a few KiB, and compaction runs
// aggressively.
func logTestConfig(dir string) Config {
	return Config{
		CheckpointDir:      dir,
		CheckpointEvery:    1,
		CkptCommitInterval: time.Millisecond,
		CkptSegmentBytes:   4 << 10,
	}
}

// TestCloseTenantLogTombstone pins the CloseTenant durability
// contract: once CloseTenant returns, the tenant's metadata file is
// gone, and while its records may remain in the shared segments, its
// tombstone must shadow them — across rapid open/submit/close cycles
// racing the shard worker's appends, a restart over the directory
// recovers zero tenants. CheckpointEvery 1 keeps a worker appending
// checkpoints while each close lands, which is exactly the race the
// tombstone ordering guards.
func TestCloseTenantLogTombstone(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, Config{CheckpointDir: dir, CheckpointEvery: 1})
	c := dialTest(t, s)
	tc := TenantConfig{Policy: "edf", N: 2, Delta: 2, Delays: []int{8, 8}}
	tick := sched.Request{{Color: 0, Count: 1}}

	for iter := 0; iter < 40; iter++ {
		id := fmt.Sprintf("lt-%02d", iter)
		if _, _, err := c.Open(id, tc); err != nil {
			t.Fatal(err)
		}
		for seq := 0; seq < 8; {
			_, _, err := c.Submit(id, seq, tick)
			switch {
			case err == nil:
				seq++
			case errors.Is(err, ErrOverloaded):
				time.Sleep(50 * time.Microsecond)
			default:
				t.Fatal(err)
			}
		}
		if _, err := c.CloseTenant(id); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, id+".meta")); !os.IsNotExist(err) {
			t.Fatalf("%s.meta survives CloseTenant (stat err %v)", id, err)
		}
	}
	// Shutdown joins the shard workers before it closes the log, so a
	// straggling checkpoint has already lost the race to the tombstones.
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}
	s2 := startServer(t, Config{CheckpointDir: dir})
	if n := s2.NumTenants(); n != 0 {
		t.Fatalf("restart over closed tenants recovered %d tenants, want 0", n)
	}
}

// TestReleaseLogTombstone walks a migration round trip through the log
// backend: Release tombstones the tenant (a restart must not recover
// it), Restore of the released blob shadows the tombstone with a fresh
// full record, and a crash right after the restore recovers the tenant
// at its restored round — the "crash after the route flip" guarantee.
func TestReleaseLogTombstone(t *testing.T) {
	dir := t.TempDir()
	inst := testInstance(t, 24, 0)
	tc := tcFor(inst)

	s1 := startServer(t, logTestConfig(dir))
	c1 := dialTest(t, s1)
	if _, _, err := c1.Open("mig", tc); err != nil {
		t.Fatal(err)
	}
	feed(t, c1, "mig", inst, 0)
	rel, err := c1.Release("mig")
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Released away: the tombstone must survive the restart even though
	// the tenant's checkpoint records are still in the segments.
	s2 := startServer(t, logTestConfig(dir))
	if n := s2.NumTenants(); n != 0 {
		t.Fatalf("restart after release recovered %d tenants, want 0", n)
	}
	c2 := dialTest(t, s2)
	next, err := c2.Restore("mig", rel.Config, rel.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if next != rel.NextSeq {
		t.Fatalf("restore resumed at seq %d, want %d", next, rel.NextSeq)
	}
	s2.Close() // crash immediately after the restore acknowledgement

	s3 := startServer(t, logTestConfig(dir))
	if n := s3.NumTenants(); n != 1 {
		t.Fatalf("restart after restore recovered %d tenants, want 1", n)
	}
	c3 := dialTest(t, s3)
	nextSeq, resumed, err := c3.Open("mig", tc)
	if err != nil || !resumed {
		t.Fatalf("re-open after restore crash = (resumed %v, %v)", resumed, err)
	}
	if nextSeq != rel.NextSeq {
		t.Fatalf("recovered at seq %d, want the restored round %d", nextSeq, rel.NextSeq)
	}
}

// TestServeLogCompactionRestart drives one tenant through several
// feed → drain → restart cycles over a log squeezed into tiny segments,
// so rotation and compaction run repeatedly and each recovery resolves
// state that compaction has rewritten (including full+delta pairs).
// After the final cycle the drained result must be bit-identical to an
// uninterrupted local replay.
func TestServeLogCompactionRestart(t *testing.T) {
	dir := t.TempDir()
	const cycles = 4
	inst := testInstance(t, 32*cycles, 0)
	tc := tcFor(inst)
	ref, err := LocalReference(inst, tc.Policy, tc.N, tc.Speed)
	if err != nil {
		t.Fatal(err)
	}

	cfg := logTestConfig(dir)
	cfg.CkptSegmentBytes = 2 << 10
	next := 0
	var res *sched.Result
	for cy := 0; cy < cycles; cy++ {
		s := startServer(t, cfg)
		c := dialTest(t, s)
		nextSeq, _, err := c.Open("churn", tc)
		if err != nil {
			t.Fatal(err)
		}
		if nextSeq != next {
			t.Fatalf("cycle %d resumed at seq %d, want %d", cy, nextSeq, next)
		}
		until := min(32*(cy+1), len(inst.Requests))
		for seq := nextSeq; seq < until; {
			_, _, err := c.Submit("churn", seq, inst.Requests[seq])
			switch {
			case err == nil:
				seq++
			case errors.Is(err, ErrOverloaded):
				time.Sleep(time.Millisecond)
			default:
				t.Fatal(err)
			}
		}
		// Only the last cycle drains (a drain runs extra empty rounds, so
		// it would shift every later cycle's resume sequence); Shutdown's
		// flush applies the queued ticks and checkpoints the rest.
		if cy == cycles-1 {
			if res, err = c.DrainTenant("churn"); err != nil {
				t.Fatal(err)
			}
		}
		next = until
		if err := s.Shutdown(); err != nil {
			t.Fatal(err)
		}
	}
	if !resultsEqual(ref, res) {
		t.Fatalf("result after %d compacting restarts differs:\n server %+v\n local  %+v", cycles, res, ref)
	}
}

// TestServeLogDeltaSnapshots pins the delta path end to end. Deltas
// only land when they beat the 2× profitability bar, so the tenant is
// shaped to carry real state: long delays keep a deep pending backlog,
// making each round's full snapshot large while the round-over-round
// change stays local. The run must record deltas in DuraStats, and a
// restart must resolve the tenant through a full+delta chain to the
// bit-identical drained result.
func TestServeLogDeltaSnapshots(t *testing.T) {
	dir := t.TempDir()
	cfg := logTestConfig(dir)
	cfg.CkptSegmentBytes = 1 << 20 // no rotation: keep the chain in one segment
	s := startServer(t, cfg)
	c := dialTest(t, s)
	delays := []int{64, 64, 64, 64, 64, 64, 64, 64}
	tc := TenantConfig{Policy: "dlruedf", N: 4, Delta: 4, Delays: delays, QueueCap: 256}
	if _, _, err := c.Open("deep", tc); err != nil {
		t.Fatal(err)
	}
	tick := sched.Request{{Color: 0, Count: 2}, {Color: 3, Count: 2}, {Color: 5, Count: 1}}
	for seq := 0; seq < 200; {
		_, _, err := c.Submit("deep", seq, tick)
		switch {
		case err == nil:
			seq++
		case errors.Is(err, ErrOverloaded):
			time.Sleep(50 * time.Microsecond)
		default:
			t.Fatal(err)
		}
	}
	res, err := c.DrainTenant("deep")
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.DuraStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Deltas == 0 {
		t.Fatalf("no delta checkpoints recorded for a deep-state tenant: %+v", st)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}

	s2 := startServer(t, cfg)
	c2 := dialTest(t, s2)
	if _, resumed, err := c2.Open("deep", tc); err != nil || !resumed {
		t.Fatalf("open after delta-chain recovery = (resumed %v, %v)", resumed, err)
	}
	res2, err := c2.Result("deep")
	if err != nil || !resultsEqual(res, res2) {
		t.Fatalf("delta-chain recovered result = (%+v, %v), want the drained result %+v", res2, err, res)
	}
}

// TestServeCrashRestartLogSegments is the crash-mid-load harness
// (restartLoad, 64 tenants, rrload-style verification) over the log
// backend under duress: every round checkpoint-due, segments a few KiB
// so the crash lands amid rotation and compaction, and a 1ms group
// commit. Close abandons the unsynced tail — the crash analogue — and
// recovery must still hand every driver a consistent resume point, with
// all 64 final results bit-identical to local replays.
func TestServeCrashRestartLogSegments(t *testing.T) {
	if testing.Short() {
		t.Skip("restart integration test")
	}
	cfg := logTestConfig(t.TempDir())
	rep := restartLoad(t, cfg, (*Server).Close)
	if want := int64(64*80) - 64; rep.RoundsSent < want {
		t.Fatalf("RoundsSent = %d, want ≥ %d", rep.RoundsSent, want)
	}
}

// TestServeAdaptivePacing smokes the adaptive pacer end to end: with
// CkptAdaptive on, a fed tenant takes at least the bootstrap checkpoint
// and recovery after a graceful shutdown still resumes at the drained
// round with bit-identical results.
func TestServeAdaptivePacing(t *testing.T) {
	dir := t.TempDir()
	inst := testInstance(t, 48, 0)
	tc := tcFor(inst)
	ref, err := LocalReference(inst, tc.Policy, tc.N, tc.Speed)
	if err != nil {
		t.Fatal(err)
	}

	cfg := logTestConfig(dir)
	cfg.CheckpointEvery = 1 << 30 // must not matter: the pacer decides
	cfg.CkptAdaptive = true
	cfg.CkptPaceMax = 8
	s := startServer(t, cfg)
	c := dialTest(t, s)
	if _, _, err := c.Open("pace", tc); err != nil {
		t.Fatal(err)
	}
	feed(t, c, "pace", inst, 0)
	res, err := c.DrainTenant("pace")
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(ref, res) {
		t.Fatalf("adaptive-paced result differs:\n server %+v\n local  %+v", res, ref)
	}
	rows, err := c.Stats("pace")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Checkpoints < 2 {
		t.Fatalf("adaptive pacer took %d checkpoints, want ≥ 2 (bootstrap + paced)", rows[0].Checkpoints)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatal(err)
	}

	s2 := startServer(t, cfg)
	c2 := dialTest(t, s2)
	if _, resumed, err := c2.Open("pace", tc); err != nil || !resumed {
		t.Fatalf("open after adaptive recovery = (resumed %v, %v)", resumed, err)
	}
	res2, err := c2.Result("pace")
	if err != nil || !resultsEqual(ref, res2) {
		t.Fatalf("recovered result = (%+v, %v), want the drained result", res2, err)
	}
}

// TestDrainAckIsDurable pins that an acknowledged drain is durable:
// when the drain's final checkpoint cannot be appended to the log or
// synced, DrainTenant answers codeInternal instead of a Result.
func TestDrainAckIsDurable(t *testing.T) {
	inst := testInstance(t, 8, 0)
	s := startServer(t, Config{CheckpointDir: t.TempDir()})
	c := dialTest(t, s)
	if _, _, err := c.Open("d", tcFor(inst)); err != nil {
		t.Fatal(err)
	}
	feed(t, c, "d", inst, 0)
	if err := s.clog.Close(); err != nil {
		t.Fatal(err)
	}
	var re *RemoteError
	if res, err := c.DrainTenant("d"); !errors.As(err, &re) || re.Code != codeInternal {
		t.Fatalf("drain over a closed checkpoint log = (%v, %v), want codeInternal", res, err)
	}
}
