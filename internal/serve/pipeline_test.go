package serve

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestSubmitBatchRoundTrip feeds a whole trace through the synchronous
// batch API in uneven chunks and requires the drained result to be
// bit-identical to a local replay — batching must change framing only,
// never scheduling.
func TestSubmitBatchRoundTrip(t *testing.T) {
	inst := testInstance(t, 64, 0)
	s := startServer(t, Config{DefaultQueueCap: 256})
	c := dialTest(t, s)
	tc := tcFor(inst)
	if _, _, err := c.Open("alpha", tc); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < len(inst.Requests); {
		k := min(7, len(inst.Requests)-seq) // uneven: final chunk is short
		admitted, _, _, err := c.SubmitBatch("alpha", seq, inst.Requests[seq:seq+k])
		switch {
		case err == nil:
			if admitted != k {
				t.Fatalf("batch at %d admitted %d of %d with nil error", seq, admitted, k)
			}
			seq += k
		case errors.Is(err, ErrOverloaded):
			seq += admitted
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("batch at %d: %v", seq, err)
		}
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
		t.Fatalf("batched result differs from local replay:\n server %+v\n local  %+v", res, ref)
	}
}

// TestSubmitBatchPartialAdmit pins the ack-vector contract: with round
// application frozen, a batch crossing the queue cap admits exactly the
// prefix that fits and names the shed round via ErrOverloaded; a batch
// at the wrong sequence admits nothing and names the resume point.
func TestSubmitBatchPartialAdmit(t *testing.T) {
	inst := testInstance(t, 16, 0)
	s := startServer(t, Config{RoundInterval: time.Hour}) // nothing applies
	c := dialTest(t, s)
	tc := tcFor(inst)
	tc.QueueCap = 4
	if _, _, err := c.Open("hot", tc); err != nil {
		t.Fatal(err)
	}

	admitted, _, depth, err := c.SubmitBatch("hot", 0, inst.Requests[:8])
	if admitted != 4 || depth != 4 || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch past cap = (admitted %d, depth %d, %v), want (4, 4, ErrOverloaded)", admitted, depth, err)
	}

	// Resubmitting from the shed round: still full, nothing admitted.
	admitted, _, _, err = c.SubmitBatch("hot", 4, inst.Requests[4:8])
	if admitted != 0 || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("refill while full = (admitted %d, %v), want (0, ErrOverloaded)", admitted, err)
	}

	// A batch at the wrong sequence is rejected before admitting anything.
	var bs *BadSeqError
	admitted, _, _, err = c.SubmitBatch("hot", 9, inst.Requests[9:12])
	if admitted != 0 || !errors.As(err, &bs) || bs.Expected != 4 {
		t.Fatalf("bad-seq batch = (admitted %d, %v), want (0, BadSeq expected 4)", admitted, err)
	}

	// A mid-batch sequence jump splits the batch: the prefix before the
	// jump is admitted (queue has room again after nothing applied — use
	// a batch overlapping the expected point instead).
	admitted, _, _, err = c.SubmitBatch("hot", 3, inst.Requests[3:6])
	if admitted != 0 || !errors.As(err, &bs) || bs.Expected != 4 {
		t.Fatalf("duplicate-prefix batch = (admitted %d, %v), want (0, BadSeq expected 4)", admitted, err)
	}

	// The server counted the rejections for observability.
	rows, err := c.Stats("hot")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].QueueDepth != 4 || rows[0].BadSeqs == 0 || rows[0].Overloads == 0 {
		t.Fatalf("stats after rejected batches = %+v", rows[0])
	}
}

// TestPipelinedSubmit drives one tenant's whole trace through a
// pipelined window (mixing single and batched frames), then verifies
// the acknowledgement stream accounted for every round exactly once and
// the drained result is bit-identical to a local replay.
func TestPipelinedSubmit(t *testing.T) {
	inst := testInstance(t, 96, 0)
	s := startServer(t, Config{DefaultQueueCap: 256})
	c := dialTest(t, s)
	tc := tcFor(inst)
	if _, _, err := c.Open("alpha", tc); err != nil {
		t.Fatal(err)
	}

	var ackedRounds, acks int
	pl := c.NewPipeline(8, func(r SubmitResult) {
		acks++
		if r.Tenant != "alpha" {
			t.Errorf("ack for tenant %q", r.Tenant)
		}
		if r.Err != nil {
			t.Errorf("ack for [%d,%d) rejected: %v", r.Seq, r.Seq+r.Rounds, r.Err)
		}
		if r.Admitted != r.Rounds {
			t.Errorf("ack for [%d,%d) admitted %d", r.Seq, r.Seq+r.Rounds, r.Admitted)
		}
		if r.RTT <= 0 {
			t.Errorf("ack missing RTT: %+v", r)
		}
		ackedRounds += r.Admitted
	})
	for seq := 0; seq < len(inst.Requests); {
		var err error
		if seq%3 == 0 { // mix frame shapes in one window
			err = pl.Submit("alpha", seq, inst.Requests[seq])
			seq++
		} else {
			k := min(5, len(inst.Requests)-seq)
			err = pl.SubmitBatch("alpha", seq, inst.Requests[seq:seq+k])
			seq += k
		}
		if err != nil {
			t.Fatalf("stage at %d: %v", seq, err)
		}
	}
	if err := pl.Flush(); err != nil {
		t.Fatal(err)
	}
	if pl.Outstanding() != 0 {
		t.Fatalf("outstanding after flush = %d", pl.Outstanding())
	}
	if ackedRounds != len(inst.Requests) {
		t.Fatalf("acks covered %d rounds in %d acks, want %d", ackedRounds, acks, len(inst.Requests))
	}

	// The window is empty, so the same connection serves synchronous
	// calls again.
	res, err := c.DrainTenant("alpha")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := LocalReference(inst, tc.Policy, tc.N, tc.Speed)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(ref, res) {
		t.Fatalf("pipelined result differs from local replay:\n server %+v\n local  %+v", res, ref)
	}
}

// TestPipelinedRejections pins rejection delivery through the window:
// with rounds frozen and the queue cap below the in-flight depth, the
// first over-cap frame is shed with ErrOverloaded and the frames behind
// it bounce with BadSeq naming the same resume point — the client-side
// picture a resync needs.
func TestPipelinedRejections(t *testing.T) {
	inst := testInstance(t, 16, 0)
	s := startServer(t, Config{RoundInterval: time.Hour})
	c := dialTest(t, s)
	tc := tcFor(inst)
	tc.QueueCap = 3
	if _, _, err := c.Open("hot", tc); err != nil {
		t.Fatal(err)
	}

	var results []SubmitResult
	pl := c.NewPipeline(8, func(r SubmitResult) { results = append(results, r) })
	for seq := 0; seq < 8; seq++ {
		if err := pl.Submit("hot", seq, inst.Requests[seq]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d acks, want 8", len(results))
	}
	for i, r := range results {
		switch {
		case i < 3:
			if r.Err != nil || r.Admitted != 1 {
				t.Fatalf("ack %d = %+v, want admitted", i, r)
			}
		case i == 3:
			if !errors.Is(r.Err, ErrOverloaded) {
				t.Fatalf("ack %d err = %v, want ErrOverloaded", i, r.Err)
			}
		default:
			var bs *BadSeqError
			if !errors.As(r.Err, &bs) || bs.Expected != 3 {
				t.Fatalf("ack %d err = %v, want BadSeq expected 3", i, r.Err)
			}
		}
	}
}

// TestOpenVersionNegotiation: the server speaks exactly
// ProtocolVersion. The neighbouring versions on either side and 0 are
// refused with codeBadVersion.
func TestOpenVersionNegotiation(t *testing.T) {
	inst := testInstance(t, 4, 0)
	s := startServer(t, Config{})
	tc := tcFor(inst)

	open := func(version int, tenant string) error {
		c := dialTest(t, s)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.enc.Reset()
		(&openMsg{Version: version, Tenant: tenant, TenantConfig: tc}).encode(c.enc)
		d, err := c.roundtrip(msgOpen)
		if err != nil {
			return err
		}
		var r openResp
		r.decode(d)
		return c.done(d)
	}

	if err := open(ProtocolVersion, "current"); err != nil {
		t.Fatalf("open at ProtocolVersion = %v, want accepted", err)
	}
	for _, v := range []int{ProtocolVersion - 1, ProtocolVersion + 1, 0} {
		var re *RemoteError
		if err := open(v, "other"); !errors.As(err, &re) || re.Code != codeBadVersion {
			t.Fatalf("open at version %d = %v, want codeBadVersion", v, err)
		}
	}
}

// TestServeLoadPipelined is TestServeLoad through the pipelined driver:
// the window plus batching must deliver every round exactly once (the
// ack accounting is exact when no restart intervenes) and the results
// stay bit-identical to local replays.
func TestServeLoadPipelined(t *testing.T) {
	s := startServer(t, Config{})
	rep, err := RunLoad(LoadConfig{
		Addr:     s.Addr().String(),
		Tenants:  32,
		Params:   workload.Params{Rounds: 60, Seed: 11},
		Pipeline: 16,
		Batch:    8,
		Verify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 0 {
		t.Fatalf("tenants with non-identical results: %v", rep.Mismatches)
	}
	// No restart: every trace round is admitted exactly once and every
	// acknowledgement is reaped, so the count is exact even through
	// overload resyncs.
	if want := int64(32 * 60); rep.RoundsSent != want {
		t.Fatalf("RoundsSent = %d, want %d (overloads %d, resumes %d)",
			rep.RoundsSent, want, rep.Overloads, rep.Resumes)
	}
	if rep.Pipeline != 16 || rep.Batch != 8 {
		t.Fatalf("report mode = (%d, %d), want (16, 8)", rep.Pipeline, rep.Batch)
	}
	if rep.Latency.N == 0 {
		t.Fatalf("report missing latency: %+v", rep)
	}
}

// TestPipelineRejectsOversizedBatch: client-side guard mirrors the
// server's MaxBatch bound.
func TestPipelineRejectsOversizedBatch(t *testing.T) {
	inst := testInstance(t, 4, 0)
	s := startServer(t, Config{})
	c := dialTest(t, s)
	if _, _, err := c.Open("a", tcFor(inst)); err != nil {
		t.Fatal(err)
	}
	huge := make([]sched.Request, MaxBatch+1)
	if _, _, _, err := c.SubmitBatch("a", 0, huge); err == nil {
		t.Fatal("SubmitBatch accepted a batch past MaxBatch")
	}
	pl := c.NewPipeline(4, nil)
	if err := pl.SubmitBatch("a", 0, huge); err == nil {
		t.Fatal("Pipeline.SubmitBatch accepted a batch past MaxBatch")
	}
	// The guard fired client-side: the connection is still healthy.
	if _, _, err := c.Submit("a", 0, inst.Requests[0]); err != nil {
		t.Fatalf("connection poisoned by rejected oversize batch: %v", err)
	}
}
