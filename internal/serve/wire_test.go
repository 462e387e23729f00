package serve

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/snap"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{[]byte("hello"), nil, bytes.Repeat([]byte{7}, 1000)}
	for _, b := range bodies {
		if err := writeFrame(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for _, want := range bodies {
		got, err := readFrame(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame = %q, want %q", got, want)
		}
		scratch = got
	}
	if _, err := readFrame(&buf, scratch); err != io.EOF {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	if err := writeFrame(io.Discard, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("writeFrame accepted an oversized body")
	}
	hdr := []byte{0xff, 0xff, 0xff, 0xff} // length 2^32-1
	if _, err := readFrame(bytes.NewReader(hdr), nil); err == nil {
		t.Fatal("readFrame accepted an oversized length prefix")
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, err := readFrame(bytes.NewReader(full[:cut]), nil); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestSubmitMsgRoundTrip(t *testing.T) {
	e := snap.NewEncoder()
	in := submitMsg{
		Tenant: "t1", Seq: 42,
		Arrivals: sched.Request{{Color: 3, Count: 7}, {Color: 0, Count: 1}},
	}
	in.encode(e)
	d := snap.NewDecoder(e.Bytes())
	if typ := d.Uint64(); typ != msgSubmit {
		t.Fatalf("type = %d", typ)
	}
	var out submitMsg
	out.decode(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if out.Tenant != in.Tenant || out.Seq != in.Seq || len(out.Arrivals) != 2 ||
		out.Arrivals[0] != in.Arrivals[0] || out.Arrivals[1] != in.Arrivals[1] {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestBatchMsgRoundTrip(t *testing.T) {
	e := snap.NewEncoder()
	in := batchMsg{
		Tenant: "t1", Seq: 42,
		Ticks: []sched.Request{
			{{Color: 3, Count: 7}, {Color: 0, Count: 1}},
			nil, // an empty round tick is a legal batch entry
			{{Color: 5, Count: 2}},
		},
	}
	in.encode(e)
	d := snap.NewDecoder(e.Bytes())
	if typ := d.Uint64(); typ != msgSubmitBatch {
		t.Fatalf("type = %d", typ)
	}
	var out batchMsg
	out.decode(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if out.Tenant != in.Tenant || out.Seq != in.Seq || len(out.Ticks) != 3 {
		t.Fatalf("round trip: %+v", out)
	}
	for i := range in.Ticks {
		if len(out.Ticks[i]) != len(in.Ticks[i]) {
			t.Fatalf("tick %d = %+v, want %+v", i, out.Ticks[i], in.Ticks[i])
		}
		for j := range in.Ticks[i] {
			if out.Ticks[i][j] != in.Ticks[i][j] {
				t.Fatalf("tick %d = %+v, want %+v", i, out.Ticks[i], in.Ticks[i])
			}
		}
	}
	// A decoded batch reuses its backing arrays across frames; a second
	// decode with fewer ticks must not leak the first frame's tail.
	e.Reset()
	(&batchMsg{Tenant: "t1", Seq: 45, Ticks: []sched.Request{{{Color: 1, Count: 1}}}}).encode(e)
	d = snap.NewDecoder(e.Bytes())
	d.Uint64()
	out.decode(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if len(out.Ticks) != 1 || len(out.Ticks[0]) != 1 || out.Ticks[0][0] != (sched.Batch{Color: 1, Count: 1}) {
		t.Fatalf("reused decode: %+v", out.Ticks)
	}
}

func TestBatchMsgRejectsHostileCount(t *testing.T) {
	e := snap.NewEncoder()
	e.Uint64(msgSubmitBatch)
	e.String("t1")
	e.Int(0)
	e.Int(MaxBatch + 1) // claims more rounds than any frame may carry
	d := snap.NewDecoder(e.Bytes())
	d.Uint64()
	var out batchMsg
	out.decode(d)
	if d.Err() == nil {
		t.Fatal("decode accepted a batch count past MaxBatch")
	}
}

func TestBatchRespRoundTrip(t *testing.T) {
	for _, in := range []batchResp{
		{Admitted: 16, Round: 99, QueueDepth: 3},
		{Admitted: 4, Round: 7, QueueDepth: 4, Err: &errResp{Code: codeBadSeq, Expected: 11, Msg: "bad round sequence"}},
	} {
		e := snap.NewEncoder()
		in.encode(e)
		d := snap.NewDecoder(e.Bytes())
		if typ := d.Uint64(); typ != msgSubmitBatch {
			t.Fatalf("type = %d", typ)
		}
		var out batchResp
		out.decode(d)
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
		if out.Admitted != in.Admitted || out.Round != in.Round || out.QueueDepth != in.QueueDepth {
			t.Fatalf("round trip: %+v, want %+v", out, in)
		}
		if (out.Err == nil) != (in.Err == nil) {
			t.Fatalf("round trip err: %+v, want %+v", out.Err, in.Err)
		}
		if in.Err != nil && *out.Err != *in.Err {
			t.Fatalf("round trip err: %+v, want %+v", *out.Err, *in.Err)
		}
	}
}

// TestStatsRespRoundTrip pins the stats response's edges (the full-row
// round trip is TestStatsRespExRoundTrip): an empty response decodes to
// no rows and consumes the body exactly, and a response cut inside a
// row yields no rows and a decoder error instead of a partial table.
func TestStatsRespRoundTrip(t *testing.T) {
	e := snap.NewEncoder()
	statsResp(nil).encode(e)
	d := snap.NewDecoder(e.Bytes())
	if typ := d.Uint64(); typ != msgStats {
		t.Fatalf("type = %d", typ)
	}
	got := statsResp{{ID: "stale"}}
	if got.decode(d); got != nil {
		t.Fatalf("empty response decoded to %+v", got)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}

	e.Reset()
	statsResp{{ID: "a", Weight: 2, ServiceShare: 0.5}, {ID: "b", ReservedRate: 0.25}}.encode(e)
	body := e.Bytes()
	d = snap.NewDecoder(body[:len(body)-3])
	d.Uint64()
	if got.decode(d); got != nil || d.Err() == nil {
		t.Fatalf("truncated response = (%+v, %v), want no rows and an error", got, d.Err())
	}
}

func TestResultRoundTrip(t *testing.T) {
	in := &sched.Result{
		Policy: "EDF", Cost: sched.Cost{Reconfig: 12, Drop: 5},
		Executed: 40, Dropped: 5, Reconfigs: 3, Rounds: 17,
		DropsByColor: []int{1, 4}, ExecByColor: []int{20, 20},
	}
	e := snap.NewEncoder()
	encodeResult(e, msgDrain, in)
	d := snap.NewDecoder(e.Bytes())
	if typ := d.Uint64(); typ != msgDrain {
		t.Fatalf("type = %d", typ)
	}
	out := decodeResult(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(in, out) {
		t.Fatalf("round trip: %+v", out)
	}
}

// The steady-state ingest path must not allocate per frame: encoding a
// submit into a reused encoder and decoding it into a reused submitMsg
// both reach zero allocations, which is what keeps a tenant's submit
// loop allocation-free on the server.
func TestSubmitCodecSteadyStateAllocs(t *testing.T) {
	e := snap.NewEncoder()
	req := sched.Request{{Color: 3, Count: 7}, {Color: 0, Count: 1}, {Color: 5, Count: 2}}
	msg := submitMsg{Tenant: "tenant-0", Seq: 0, Arrivals: req}
	var dec submitMsg
	// Warm: the decoder grows its arrivals buffer once.
	e.Reset()
	msg.encode(e)
	dec.decode(snap.NewDecoder(e.Bytes()))

	allocs := testing.AllocsPerRun(200, func() {
		msg.Seq++
		e.Reset()
		msg.encode(e)
		d := snap.NewDecoder(e.Bytes())
		d.Uint64()
		dec.decode(d)
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("submit encode+decode allocates %.1f per frame", allocs)
	}
}

// TestOpenMsgV6RoundTrip pins the open request's weight and BDR
// reservation fields (introduced by protocol v6, fixed since v7): a
// reserved open round-trips its (rate, delay) pair, and an unreserved,
// unweighted open decodes its zeros back in the same fixed shape.
func TestOpenMsgV6RoundTrip(t *testing.T) {
	in := openMsg{Version: ProtocolVersion, Tenant: "t1", TenantConfig: TenantConfig{Policy: "edf",
		N: 4, Speed: 1, Delta: 4, QueueCap: 32, Delays: []int{2, 6}, Weight: 2,
		ResRate: 0.25, ResDelay: 16}}
	for _, weight := range []int{2, 0} {
		in.Weight = weight
		if weight == 0 {
			in.ResRate, in.ResDelay = 0, 0
		}
		e := snap.NewEncoder()
		in.encode(e)
		d := snap.NewDecoder(e.Bytes())
		if typ := d.Uint64(); typ != msgOpen {
			t.Fatalf("type = %d", typ)
		}
		out := openMsg{TenantConfig: TenantConfig{Weight: 9, ResRate: 1, ResDelay: 1}}
		out.decode(d)
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip: %+v, want %+v", out, in)
		}
	}
}

// TestMigrationV6RoundTrip pins the reservation pair through the
// migration codecs: the release response hands it out, restoreMsg
// re-declares it, and an unreserved release decodes the zero pair.
func TestMigrationV6RoundTrip(t *testing.T) {
	conf := TenantConfig{Policy: "edf", N: 4, Speed: 1, Delta: 4, QueueCap: 32,
		Delays: []int{2, 6}, Weight: 1, ResRate: 0.5, ResDelay: 24}
	roundTrip := func(typ uint64, in, out interface {
		encode(*snap.Encoder)
		decode(*snap.Decoder)
	}) {
		t.Helper()
		e := snap.NewEncoder()
		in.encode(e)
		d := snap.NewDecoder(e.Bytes())
		if got := d.Uint64(); got != typ {
			t.Fatalf("type = %d, want %d", got, typ)
		}
		out.decode(d)
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip: %+v, want %+v", out, in)
		}
	}
	rel := &ReleasedTenant{Config: conf, NextSeq: 9, Blob: []byte{1, 2, 3}}
	roundTrip(msgRelease, rel, &ReleasedTenant{})
	roundTrip(msgRestore, &restoreMsg{Version: ProtocolVersion, Tenant: "t1", TenantConfig: conf,
		Blob: []byte{4, 5}}, &restoreMsg{})
	rel.Config.ResRate, rel.Config.ResDelay = 0, 0
	roundTrip(msgRelease, rel, &ReleasedTenant{Config: TenantConfig{ResRate: 1, ResDelay: 1}})
}

// TestErrRespAdmissionRoundTrip: the residual-capacity pair rides only
// on codeAdmission responses; every other error code's shape has no
// residual fields at all.
func TestErrRespAdmissionRoundTrip(t *testing.T) {
	in := errResp{Code: codeAdmission, Msg: "shard full", ResidualRate: 0.375, ResidualDelay: 2}
	e := snap.NewEncoder()
	in.encode(e)
	d := snap.NewDecoder(e.Bytes())
	if typ := d.Uint64(); typ != msgErr {
		t.Fatalf("type = %d", typ)
	}
	var out errResp
	out.decode(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v, want %+v", out, in)
	}

	// A non-admission error must not grow the residual fields.
	plain := errResp{Code: codeBadSeq, Expected: 7, Msg: "bad seq"}
	e.Reset()
	plain.encode(e)
	withRes := errResp{Code: codeBadSeq, Expected: 7, Msg: "bad seq", ResidualRate: 1}
	e2 := snap.NewEncoder()
	withRes.encode(e2)
	if !bytes.Equal(e.Bytes(), e2.Bytes()) {
		t.Fatal("non-admission errResp encoding depends on residual fields")
	}
}

// TestDuraStatsBackendsRoundTrip pins the proxy fan-out rows: a
// response with per-backend rows round-trips them labelled, and a
// row-less response (a server answering a direct dial) decodes to no
// rows.
func TestDuraStatsBackendsRoundTrip(t *testing.T) {
	in := DuraStats{Mode: "mixed", Appends: 10, Bytes: 1000, Fsyncs: 3,
		Deltas: 2, Rotations: 1, Compactions: 1, Segments: 2,
		Backends: []BackendDuraStats{
			{Addr: "127.0.0.1:1", DuraStats: DuraStats{Mode: "log", Appends: 6, Bytes: 600, Fsyncs: 2, Deltas: 2, Rotations: 1, Compactions: 1, Segments: 1}},
			{Addr: "127.0.0.1:2", DuraStats: DuraStats{Mode: "off"}},
		}}
	e := snap.NewEncoder()
	in.encode(e)
	d := snap.NewDecoder(e.Bytes())
	if typ := d.Uint64(); typ != msgDuraStats {
		t.Fatalf("type = %d", typ)
	}
	var out DuraStats
	out.decode(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if out.Mode != "mixed" || out.Appends != 10 || len(out.Backends) != 2 {
		t.Fatalf("round trip: %+v", out)
	}
	if !reflect.DeepEqual(out.Backends, in.Backends) {
		t.Fatalf("backend rows: %+v", out.Backends)
	}

	in.Backends = nil
	e.Reset()
	in.encode(e)
	d = snap.NewDecoder(e.Bytes())
	d.Uint64()
	out = DuraStats{Backends: []BackendDuraStats{{Addr: "stale"}}}
	out.decode(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if out.Backends != nil || out.Appends != in.Appends || out.Mode != in.Mode {
		t.Fatalf("row-less round trip: %+v", out)
	}
}
