// Package serve is the network layer of the repository: a TCP server
// (cmd/rrserved) hosting many independent tenants — each a live
// sched.Stream with its own policy — behind a small length-prefixed
// binary protocol, plus the matching Client used by the load generator
// (cmd/rrload) and by embedders.
//
// # Wire format
//
// Every message travels in a frame: a 4-byte little-endian length
// prefix followed by that many body bytes (at most MaxFrame). The body
// is encoded with internal/snap's deterministic varint codec and starts
// with a varint message type; the remaining fields depend on the type.
// Responses reuse the same framing. A malformed, truncated or oversized
// frame is a protocol error: the reader reports it and the connection
// is closed — never a panic, pinned by FuzzFrameDecode.
//
// Every peer speaks the one ProtocolVersion, carried in the open and
// restore requests; any other version is refused with a typed error.
// Each message has a fixed field list, so a decoder always consumes the
// whole body — no field is optional. Besides the per-tenant lifecycle
// commands (open, submit, result, drain, close, snapshot), the protocol
// has:
//
//   - msgTagged, an envelope carrying a varint tag that the response
//     echoes, so many requests can be pipelined per connection and
//     acknowledged out of order or coalesced into one flush;
//   - msgSubmitBatch, which vectors K consecutive round ticks for one
//     tenant into one frame with a per-round admitted-prefix
//     acknowledgement;
//   - msgStats, whose rows carry each tenant's scheduling totals, the
//     cross-tenant fields (weight, delay factor, service share) and its
//     bounded-delay reservation with budget utilization;
//   - the fleet-migration pair: msgRelease hands a tenant's state out
//     of a server (drain the admission queue, snapshot, leave a
//     tombstone) and msgRestore installs it on another, so a router
//     tier (internal/proxy) can move a live tenant between backends
//     without losing a round;
//   - msgDuraStats, which reports the group-commit checkpoint log's
//     counters, with per-backend rows when a proxy answers it as a
//     fan-out.
//
// Open and restore carry the tenant's service weight and its (rate,
// delay) reservation for bounded-delay admission control
// (docs/SCHEDULING.md "Admission"); an infeasible reservation is
// rejected with a typed admission error carrying the shard's residual
// capacity.
//
// # Rounds, sequence numbers, and exactly-once ingest
//
// One Submit carries the arrivals of exactly one round tick for one
// tenant and names its position in the tenant's round sequence. The
// server accepts a submit only when its sequence number equals the
// tenant's next expected round (rounds applied + rounds queued), so a
// client that resubmits after a lost acknowledgement, a reconnect or a
// server restart can never duplicate or reorder a round: stale submits
// are rejected with a BadSeqError carrying the expected sequence, and
// the client simply resumes from there. Together with per-tenant
// checkpointing this gives exactly-once round application end to end —
// the property the bit-identical integration tests pin.
//
// See docs/SERVER.md for the full protocol and lifecycle description.
package serve

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/sched"
	"repro/internal/snap"
)

// ProtocolVersion is carried in every open and restore request. The
// server speaks exactly this version and refuses any other with
// codeBadVersion: every message has one fixed shape (see the package
// comment), so a peer built against another version would misparse it.
const ProtocolVersion = 7

// MaxBatch bounds the round ticks one submit-batch frame may carry. It
// keeps a hostile length prefix from forcing a large allocation before
// the batch body is validated, and bounds how long one frame can hold a
// tenant's lock.
const MaxBatch = 1024

// MaxPipeline bounds a client Pipeline's in-flight window. Staying well
// under the server's per-connection response queue plus the kernel
// socket buffers guarantees the reap-when-full client loop can never
// deadlock against a server blocked on writing acknowledgements.
const MaxPipeline = 1024

// MaxFrame bounds a frame body. It must hold the largest legitimate
// message (a stats response for every tenant, a snapshot blob); a
// length prefix beyond it proves a corrupt or hostile peer and closes
// the connection before any allocation is attempted.
const MaxFrame = 1 << 22

// Message types (requests). Responses echo the request's type, except
// for errors which use msgErr.
const (
	msgErr = iota // response-only
	msgOpen
	msgSubmit
	_ // 3: retired (the pre-v7 stats command without scheduling fields)
	msgResult
	msgDrain
	msgCloseTenant
	msgPing
	msgSnapshot
	// msgTagged is the pipelining envelope: a varint request tag
	// followed by a complete inner message. The response to a tagged
	// request is wrapped the same way with the same tag, so a client may
	// keep many requests in flight and match acknowledgements by tag even
	// if they return out of order or coalesced into one flush.
	msgTagged
	// msgSubmitBatch carries K consecutive round ticks for one tenant in
	// one frame — one length prefix and one syscall amortized over K
	// rounds. Admission is per round and strictly sequential, so the
	// response names the admitted prefix plus the first rejection.
	msgSubmitBatch
	// msgStats asks for one tenant's stats row, or every tenant's when
	// the tenant ID is empty (see TenantStats).
	msgStats
	// msgRestore installs a previously released tenant snapshot: the
	// open-request fields that describe the tenant's configuration plus
	// the state blob a msgRelease (or msgSnapshot) returned. The server
	// validates the blob against the declared configuration, recreates
	// the tenant at its snapshotted round, and persists the blob as the
	// tenant's first checkpoint, so a migration survives a crash
	// immediately after the flip.
	msgRestore
	// msgRelease is the source half of a migration: the server applies
	// everything the tenant has queued, snapshots it, removes its durable
	// state, and replaces the tenant with a released tombstone that
	// answers every later command with a retryable draining error. The
	// response carries the tenant's configuration, resume sequence, and
	// state blob — everything msgRestore needs on the target.
	msgRelease
	// msgDuraStats is a bare request for the server's durability
	// counters: the mode plus the group-commit log's append, byte, fsync,
	// delta, rotation, compaction and live-segment counts. The proxy tier
	// relays it as a fan-out: the merged response sums every live
	// backend's counters and adds one labelled row per backend.
	msgDuraStats
)

// DuraStats reports the group-commit checkpoint log's cumulative
// counters. Mode is "log", or "off" (no CheckpointDir, all counters
// zero). Fsyncs counts group commits, which is the number the batching
// exists to shrink.
type DuraStats struct {
	Mode        string
	Appends     int64
	Bytes       int64
	Fsyncs      int64
	Deltas      int64
	Rotations   int64
	Compactions int64
	Segments    int64
	// Backends carries the per-backend rows of a proxy fan-out: when a
	// DuraStats request is answered by the proxy tier, the top-level
	// counters are the fleet-wide sums (Mode is "mixed" when the
	// backends disagree) and each row names one backend's address with
	// its own counters. A server answering a direct dial leaves it empty.
	Backends []BackendDuraStats
}

// BackendDuraStats is one backend's row in a proxied DuraStats
// response: the backend's address plus its own counters.
type BackendDuraStats struct {
	// Addr is the backend's dial address as configured on the proxy.
	Addr string
	// DuraStats holds the backend's own counters; its Backends field is
	// always empty (the fan-out is one level deep).
	DuraStats
}

func (s *DuraStats) encode(e *snap.Encoder) {
	e.Uint64(msgDuraStats)
	s.encodeCounters(e)
	e.Int(len(s.Backends))
	for i := range s.Backends {
		e.String(s.Backends[i].Addr)
		s.Backends[i].encodeCounters(e)
	}
}

func (s *DuraStats) encodeCounters(e *snap.Encoder) {
	e.String(s.Mode)
	e.Int64(s.Appends)
	e.Int64(s.Bytes)
	e.Int64(s.Fsyncs)
	e.Int64(s.Deltas)
	e.Int64(s.Rotations)
	e.Int64(s.Compactions)
	e.Int64(s.Segments)
}

func (s *DuraStats) decode(d *snap.Decoder) {
	s.decodeCounters(d)
	s.Backends = nil
	n := d.Len()
	if d.Err() != nil || n == 0 {
		return
	}
	s.Backends = make([]BackendDuraStats, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		var b BackendDuraStats
		b.Addr = d.String()
		b.decodeCounters(d)
		if d.Err() != nil {
			return
		}
		s.Backends = append(s.Backends, b)
	}
}

func (s *DuraStats) decodeCounters(d *snap.Decoder) {
	s.Mode = d.String()
	s.Appends = d.Int64()
	s.Bytes = d.Int64()
	s.Fsyncs = d.Int64()
	s.Deltas = d.Int64()
	s.Rotations = d.Int64()
	s.Compactions = d.Int64()
	s.Segments = d.Int64()
}

// writeFrame sends one length-prefixed frame.
func writeFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("serve: frame body %d bytes exceeds MaxFrame %d", len(body), MaxFrame)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one frame body, reusing buf when it is large enough.
// It returns io.EOF only on a clean end of stream (no bytes read).
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("serve: reading frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("serve: frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("serve: frame body truncated: %w", err)
	}
	return buf, nil
}

// openMsg asks the server to create a tenant, or to re-attach to an
// existing one with a matching configuration.
type openMsg struct {
	Version int
	Tenant  string
	TenantConfig
}

func (m *openMsg) encode(e *snap.Encoder) {
	e.Uint64(msgOpen)
	e.Int(m.Version)
	e.String(m.Tenant)
	m.TenantConfig.encode(e)
}

func (m *openMsg) decode(d *snap.Decoder) {
	m.Version = d.Int()
	m.Tenant = d.String()
	m.TenantConfig.decode(d)
}

// encode writes a tenant configuration: the body shared by the open and
// restore requests, the release response, and the durable tenant
// metadata file (whose format fixes the field order).
func (tc *TenantConfig) encode(e *snap.Encoder) {
	e.String(tc.Policy)
	e.Int(tc.QueueCap)
	e.Int(tc.N)
	e.Int(tc.Speed)
	e.Int(tc.Delta)
	e.Ints(tc.Delays)
	e.Int(tc.Weight)
	e.Float64(tc.ResRate)
	e.Float64(tc.ResDelay)
}

func (tc *TenantConfig) decode(d *snap.Decoder) {
	tc.Policy = d.String()
	tc.QueueCap = d.Int()
	tc.N = d.Int()
	tc.Speed = d.Int()
	tc.Delta = d.Int()
	tc.Delays = d.Ints()
	tc.Weight = d.Int()
	tc.ResRate = d.Float64()
	tc.ResDelay = d.Float64()
}

// openResp acknowledges an open: NextSeq is the sequence number the
// next Submit must carry (0 for a fresh tenant; the resume point for a
// recovered or re-attached one).
type openResp struct {
	NextSeq int
	Resumed bool
}

func (m *openResp) encode(e *snap.Encoder) {
	e.Uint64(msgOpen)
	e.Int(m.NextSeq)
	e.Bool(m.Resumed)
}

func (m *openResp) decode(d *snap.Decoder) {
	m.NextSeq = d.Int()
	m.Resumed = d.Bool()
}

// submitMsg carries one round tick of arrivals for one tenant. Seq must
// equal the tenant's next expected round sequence.
type submitMsg struct {
	Tenant   string
	Seq      int
	Arrivals sched.Request
}

func (m *submitMsg) encode(e *snap.Encoder) {
	e.Uint64(msgSubmit)
	e.String(m.Tenant)
	e.Int(m.Seq)
	e.Int(len(m.Arrivals))
	for _, b := range m.Arrivals {
		e.Int(int(b.Color))
		e.Int(b.Count)
	}
}

// decode reuses m.Arrivals' backing array, so a long-lived handler
// reaches a steady state without per-frame batch allocations.
func (m *submitMsg) decode(d *snap.Decoder) {
	m.Tenant = d.StringCached(m.Tenant)
	m.Seq = d.Int()
	n := d.Len() // each batch takes ≥ 2 bytes, so Len's bound is safe
	m.Arrivals = m.Arrivals[:0]
	for i := 0; i < n; i++ {
		c, cnt := d.Int(), d.Int()
		if d.Err() != nil {
			return
		}
		m.Arrivals = append(m.Arrivals, sched.Batch{Color: sched.Color(c), Count: cnt})
	}
}

// submitResp acknowledges admission of one round tick: the submit is
// queued (QueueDepth deep) and will be applied by the tenant's shard
// worker; Round is the number of rounds applied so far.
type submitResp struct {
	Round      int
	QueueDepth int
}

func (m *submitResp) encode(e *snap.Encoder) {
	e.Uint64(msgSubmit)
	e.Int(m.Round)
	e.Int(m.QueueDepth)
}

func (m *submitResp) decode(d *snap.Decoder) {
	m.Round = d.Int()
	m.QueueDepth = d.Int()
}

// batchMsg carries Ticks[i] as the round tick at sequence Seq+i — K
// consecutive rounds for one tenant in one frame.
type batchMsg struct {
	Tenant string
	Seq    int
	Ticks  []sched.Request
}

func (m *batchMsg) encode(e *snap.Encoder) {
	e.Uint64(msgSubmitBatch)
	e.String(m.Tenant)
	e.Int(m.Seq)
	e.Int(len(m.Ticks))
	for _, tick := range m.Ticks {
		e.Int(len(tick))
		for _, b := range tick {
			e.Int(int(b.Color))
			e.Int(b.Count)
		}
	}
}

// decode reuses m.Ticks and each tick's backing array across frames, so
// a long-lived handler decodes batches without steady-state allocations.
// A malformed body leaves the decoder in its error state and the caller
// must not admit anything — batch rejection is atomic.
func (m *batchMsg) decode(d *snap.Decoder) {
	m.Tenant = d.StringCached(m.Tenant)
	m.Seq = d.Int()
	k := d.Len() // each round tick takes ≥ 1 byte, so Len's bound holds
	if d.Err() != nil {
		return
	}
	if k > MaxBatch {
		d.Failf("serve: batch of %d rounds exceeds MaxBatch %d", k, MaxBatch)
		return
	}
	if k > cap(m.Ticks) {
		m.Ticks = append(m.Ticks[:cap(m.Ticks)], make([]sched.Request, k-cap(m.Ticks))...)
	}
	m.Ticks = m.Ticks[:k]
	for i := range m.Ticks {
		n := d.Len() // each batch takes ≥ 2 bytes
		tick := m.Ticks[i][:0]
		for j := 0; j < n; j++ {
			c, cnt := d.Int(), d.Int()
			if d.Err() != nil {
				return
			}
			tick = append(tick, sched.Batch{Color: sched.Color(c), Count: cnt})
		}
		m.Ticks[i] = tick
	}
}

// batchResp acknowledges a submit batch: Admitted rounds (always a
// prefix — admission is sequential) were queued, Round/QueueDepth
// describe the tenant afterwards, and when Admitted < the batch size,
// Err carries the rejection of round Seq+Admitted exactly as a
// standalone submit of that round would have reported it.
type batchResp struct {
	Admitted   int
	Round      int
	QueueDepth int
	Err        *errResp // nil when the whole batch was admitted
}

func (m *batchResp) encode(e *snap.Encoder) {
	e.Uint64(msgSubmitBatch)
	e.Int(m.Admitted)
	e.Int(m.Round)
	e.Int(m.QueueDepth)
	e.Bool(m.Err != nil)
	if m.Err != nil {
		e.Int(m.Err.Code)
		e.Int(m.Err.Expected)
		e.String(m.Err.Msg)
	}
}

func (m *batchResp) decode(d *snap.Decoder) {
	m.Admitted = d.Int()
	m.Round = d.Int()
	m.QueueDepth = d.Int()
	m.Err = nil
	if d.Bool() {
		m.Err = &errResp{Code: d.Int(), Expected: d.Int(), Msg: d.String()}
	}
}

// restoreMsg installs a released tenant snapshot on this server: the
// open-request fields plus the state blob a release (or snapshot)
// returned. The declared configuration must match the one embedded in
// the blob — a mismatch proves operator error and is rejected before
// any state is created. The target re-runs admission for the declared
// reservation against its own shard capacity, so a migration can never
// overcommit it.
type restoreMsg struct {
	Version int
	Tenant  string
	TenantConfig
	Blob []byte
}

func (m *restoreMsg) encode(e *snap.Encoder) {
	e.Uint64(msgRestore)
	e.Int(m.Version)
	e.String(m.Tenant)
	m.TenantConfig.encode(e)
	e.Blob(m.Blob)
}

func (m *restoreMsg) decode(d *snap.Decoder) {
	m.Version = d.Int()
	m.Tenant = d.String()
	m.TenantConfig.decode(d)
	m.Blob = d.Blob()
}

// restoreResp acknowledges a restore: NextSeq is the sequence number
// the tenant's next Submit must carry on this server.
type restoreResp struct {
	NextSeq int
}

func (m *restoreResp) encode(e *snap.Encoder) {
	e.Uint64(msgRestore)
	e.Int(m.NextSeq)
}

func (m *restoreResp) decode(d *snap.Decoder) {
	m.NextSeq = d.Int()
}

func (r *ReleasedTenant) encode(e *snap.Encoder) {
	e.Uint64(msgRelease)
	r.Config.encode(e)
	e.Int(r.NextSeq)
	e.Blob(r.Blob)
}

func (r *ReleasedTenant) decode(d *snap.Decoder) {
	r.Config.decode(d)
	r.NextSeq = d.Int()
	r.Blob = d.Blob()
}

// tenantMsg is the shape shared by the single-tenant commands (stats,
// result, drain, close, snapshot): a type plus the tenant ID ("" asks
// stats for every tenant).
type tenantMsg struct {
	Type   uint64
	Tenant string
}

func (m *tenantMsg) encode(e *snap.Encoder) {
	e.Uint64(m.Type)
	e.String(m.Tenant)
}

func (m *tenantMsg) decode(d *snap.Decoder) {
	m.Tenant = d.String()
}

// TenantStats is one tenant's row of the stats command: scheduling
// totals from the live stream, admission-control counters, and the
// stream's backlog high-water mark.
type TenantStats struct {
	// ID and Policy identify the tenant and its policy (Policy is the
	// policy's Name, not the spec it was opened with).
	ID     string `json:"id"`
	Policy string `json:"policy"`
	// Round counts rounds applied; NextSeq = Round + QueueDepth is the
	// sequence the next Submit must carry.
	Round   int `json:"round"`
	NextSeq int `json:"next_seq"`
	// Pending counts jobs pending inside the stream; QueueDepth counts
	// admitted round ticks not yet applied (bounded by QueueCap).
	Pending    int `json:"pending"`
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Scheduling totals (cumulative since the stream started, surviving
	// checkpoint/restart).
	Executed     int   `json:"executed"`
	Dropped      int   `json:"dropped"`
	Reconfigs    int   `json:"reconfigs"`
	CostReconfig int64 `json:"cost_reconfig"`
	CostDrop     int64 `json:"cost_drop"`
	// MaxPending is the deepest end-of-round backlog the stream's probe
	// saw (since this process started — probes are not checkpointed).
	MaxPending int `json:"max_pending"`
	// Admission-control counters (since this process started).
	Overloads   int64 `json:"overloads"`
	BadSeqs     int64 `json:"bad_seqs"`
	Checkpoints int64 `json:"checkpoints"`
	// Cross-tenant scheduling fields.
	//
	// Weight is the tenant's provisioned service weight; MinDelay the
	// tightest bound in its delay menu. DelayFactor = QueueDepth/MinDelay
	// is the live backlog pressure signal the allocator escalates on, and
	// MaxDelayFactor its high-water mark sampled at admission (since this
	// process started). ServedRounds counts round ticks applied by shard
	// workers; ServiceShare is this tenant's fraction of every round the
	// server has applied. See docs/SCHEDULING.md.
	Weight         int     `json:"weight,omitempty"`
	MinDelay       int     `json:"min_delay,omitempty"`
	ServedRounds   int64   `json:"served_rounds,omitempty"`
	DelayFactor    float64 `json:"delay_factor,omitempty"`
	MaxDelayFactor float64 `json:"max_delay_factor,omitempty"`
	ServiceShare   float64 `json:"service_share,omitempty"`
	// BDR admission fields. ReservedRate/ReservedDelay are the tenant's
	// admitted reservation (zero for a best-effort tenant).
	// BudgetUtilization is served rounds over the service the
	// reservation accrued across the passes the tenant was backlogged
	// in — below 1 means the tenant is drawing less than its guarantee,
	// above 1 that it is also consuming slack. See docs/SCHEDULING.md.
	ReservedRate      float64 `json:"reserved_rate,omitempty"`
	ReservedDelay     float64 `json:"reserved_delay,omitempty"`
	BudgetUtilization float64 `json:"budget_utilization,omitempty"`
}

func (s *TenantStats) encode(e *snap.Encoder) {
	e.String(s.ID)
	e.String(s.Policy)
	e.Int(s.Round)
	e.Int(s.NextSeq)
	e.Int(s.Pending)
	e.Int(s.QueueDepth)
	e.Int(s.QueueCap)
	e.Int(s.Executed)
	e.Int(s.Dropped)
	e.Int(s.Reconfigs)
	e.Int64(s.CostReconfig)
	e.Int64(s.CostDrop)
	e.Int(s.MaxPending)
	e.Int64(s.Overloads)
	e.Int64(s.BadSeqs)
	e.Int64(s.Checkpoints)
	e.Int(s.Weight)
	e.Int(s.MinDelay)
	e.Int64(s.ServedRounds)
	e.Float64(s.DelayFactor)
	e.Float64(s.MaxDelayFactor)
	e.Float64(s.ServiceShare)
	e.Float64(s.ReservedRate)
	e.Float64(s.ReservedDelay)
	e.Float64(s.BudgetUtilization)
}

func (s *TenantStats) decode(d *snap.Decoder) {
	s.ID = d.String()
	s.Policy = d.String()
	s.Round = d.Int()
	s.NextSeq = d.Int()
	s.Pending = d.Int()
	s.QueueDepth = d.Int()
	s.QueueCap = d.Int()
	s.Executed = d.Int()
	s.Dropped = d.Int()
	s.Reconfigs = d.Int()
	s.CostReconfig = d.Int64()
	s.CostDrop = d.Int64()
	s.MaxPending = d.Int()
	s.Overloads = d.Int64()
	s.BadSeqs = d.Int64()
	s.Checkpoints = d.Int64()
	s.Weight = d.Int()
	s.MinDelay = d.Int()
	s.ServedRounds = d.Int64()
	s.DelayFactor = d.Float64()
	s.MaxDelayFactor = d.Float64()
	s.ServiceShare = d.Float64()
	s.ReservedRate = d.Float64()
	s.ReservedDelay = d.Float64()
	s.BudgetUtilization = d.Float64()
}

// statsResp is the stats response: one row per tenant, sorted by ID.
type statsResp []TenantStats

func (r statsResp) encode(e *snap.Encoder) {
	e.Uint64(msgStats)
	e.Int(len(r))
	for i := range r {
		r[i].encode(e)
	}
}

// decode leaves r nil when the response is empty or malformed.
func (r *statsResp) decode(d *snap.Decoder) {
	*r = nil
	n := d.Len()
	if d.Err() != nil || n == 0 {
		return
	}
	rows := make(statsResp, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		var s TenantStats
		s.decode(d)
		if d.Err() != nil {
			return
		}
		rows = append(rows, s)
	}
	*r = rows
}

// encodeResult writes a sched.Result (minus the never-recorded
// Schedule) under the given response type (msgResult, msgDrain or
// msgCloseTenant, which all answer with a Result).
func encodeResult(e *snap.Encoder, typ uint64, r *sched.Result) {
	e.Uint64(typ)
	e.String(r.Policy)
	e.Int64(r.Cost.Reconfig)
	e.Int64(r.Cost.Drop)
	e.Int(r.Executed)
	e.Int(r.Dropped)
	e.Int(r.Reconfigs)
	e.Int(r.Rounds)
	e.Ints(r.DropsByColor)
	e.Ints(r.ExecByColor)
}

func decodeResult(d *snap.Decoder) *sched.Result {
	r := &sched.Result{}
	r.Policy = d.String()
	r.Cost.Reconfig = d.Int64()
	r.Cost.Drop = d.Int64()
	r.Executed = d.Int()
	r.Dropped = d.Int()
	r.Reconfigs = d.Int()
	r.Rounds = d.Int()
	r.DropsByColor = d.Ints()
	r.ExecByColor = d.Ints()
	if d.Err() != nil {
		return nil
	}
	return r
}

// errResp is the error response: a machine-readable code (see
// errors.go), the expected sequence for errBadSeq, and a human-readable
// message. A codeAdmission rejection additionally carries the shard's
// residual capacity; no other code has those two fields.
type errResp struct {
	Code     int
	Expected int
	Msg      string
	// ResidualRate/ResidualDelay describe what would have fit when Code
	// is codeAdmission: the shard's unreserved rate, and its own delay
	// bound (an admissible reservation's delay must exceed it).
	ResidualRate  float64
	ResidualDelay float64
}

func (m *errResp) encode(e *snap.Encoder) {
	e.Uint64(msgErr)
	e.Int(m.Code)
	e.Int(m.Expected)
	e.String(m.Msg)
	if m.Code == codeAdmission {
		e.Float64(m.ResidualRate)
		e.Float64(m.ResidualDelay)
	}
}

func (m *errResp) decode(d *snap.Decoder) {
	m.Code = d.Int()
	m.Expected = d.Int()
	m.Msg = d.String()
	m.ResidualRate, m.ResidualDelay = 0, 0
	if m.Code == codeAdmission {
		m.ResidualRate = d.Float64()
		m.ResidualDelay = d.Float64()
	}
}
