package serve

// This file is the exported peer surface for the router tier
// (internal/proxy): just enough frame and request-shape knowledge to
// forward protocol traffic without re-implementing the codecs. The
// proxy peeks each request frame for its routing key (the tenant ID),
// relays the bytes verbatim to the chosen backend, and uses the Append*
// helpers to answer the few requests it must handle itself (fleet-wide
// stats, ping, and routing errors).

import (
	"fmt"
	"io"

	"repro/internal/snap"
)

// ReqKind classifies a peeked request frame for routing.
type ReqKind int

const (
	// ReqTenant is a request addressed to one tenant; route it to the
	// backend owning PeekInfo.Tenant.
	ReqTenant ReqKind = iota
	// ReqStatsAll is a stats request for every tenant ("" tenant); a
	// router must fan it out and merge the rows.
	ReqStatsAll
	// ReqPing is a liveness probe; a router answers for the fleet.
	ReqPing
	// ReqDuraStats is a durability-counter request; a router fans it
	// out and answers with summed totals plus a per-backend breakdown.
	ReqDuraStats
)

// PeekInfo describes one request frame without consuming it: enough
// for a router to pick a backend, echo a tagged envelope on responses
// it generates itself, and decide whether the frame mutates tenant
// state (and so must be teed to a warm standby).
type PeekInfo struct {
	// Tagged reports a pipelining envelope; Tag is its tag, which every
	// response — including router-generated errors — must echo.
	Tagged bool
	// Tag is the envelope's request tag (meaningful only when Tagged).
	Tag uint64
	// Kind classifies the request for routing.
	Kind ReqKind
	// Tenant is the routing key: the tenant the request addresses
	// (meaningful only for ReqTenant).
	Tenant string
	// Mutating reports a request that advances tenant state (open,
	// submit, submit-batch, drain, close) — the set a warm-standby tee
	// must replicate. Read-only commands and the migration pair are
	// excluded: migration is the router's own operation.
	Mutating bool
}

// PeekRequest classifies one request frame body. It never panics,
// whatever the bytes; a frame it cannot classify (truncated header
// fields, unknown type) is a protocol error the caller should surface
// to the client before closing the connection.
func PeekRequest(body []byte) (PeekInfo, error) {
	var info PeekInfo
	d := snap.NewDecoder(body)
	typ := d.Uint64()
	if d.Err() != nil {
		return info, fmt.Errorf("serve: truncated message type")
	}
	if typ == msgTagged {
		info.Tagged = true
		info.Tag = d.Uint64()
		typ = d.Uint64()
		if d.Err() != nil {
			return info, fmt.Errorf("serve: truncated tagged envelope")
		}
		if typ == msgTagged {
			return info, fmt.Errorf("serve: nested tagged envelope")
		}
	}
	switch typ {
	case msgOpen, msgRestore:
		d.Int() // version
		info.Tenant = d.String()
		info.Mutating = typ == msgOpen
	case msgSubmit, msgSubmitBatch, msgDrain, msgCloseTenant:
		info.Tenant = d.String()
		info.Mutating = true
	case msgResult, msgSnapshot, msgRelease:
		info.Tenant = d.String()
	case msgStats:
		info.Tenant = d.String()
		if info.Tenant == "" {
			info.Kind = ReqStatsAll
		}
	case msgPing:
		info.Kind = ReqPing
	case msgDuraStats:
		info.Kind = ReqDuraStats
	default:
		return info, fmt.Errorf("serve: unknown message type %d", typ)
	}
	if d.Err() != nil {
		return info, fmt.Errorf("serve: truncated request header: %w", d.Err())
	}
	return info, nil
}

// WriteFrame sends one length-prefixed frame — the exported framing
// entry point for peers outside this package (the proxy relay).
func WriteFrame(w io.Writer, body []byte) error { return writeFrame(w, body) }

// ReadFrame reads one frame body, reusing buf when it is large enough.
// It returns io.EOF only on a clean end of stream.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) { return readFrame(r, buf) }

// appendEnvelope echoes a tagged request's envelope onto a response a
// router generates itself.
func appendEnvelope(e *snap.Encoder, info PeekInfo) {
	if info.Tagged {
		e.Uint64(msgTagged)
		e.Uint64(info.Tag)
	}
}

// AppendStatsResponse encodes a stats response for the rows a router
// merged from its backends, under the request's tagged envelope if any.
func AppendStatsResponse(e *snap.Encoder, info PeekInfo, rows []TenantStats) {
	appendEnvelope(e, info)
	statsResp(rows).encode(e)
}

// AppendPingResponse encodes a ping response (fleet-wide draining flag
// and tenant total) under the request's tagged envelope if any.
func AppendPingResponse(e *snap.Encoder, info PeekInfo, draining bool, tenants int) {
	appendEnvelope(e, info)
	e.Uint64(msgPing)
	e.Bool(draining)
	e.Int(tenants)
}

// AppendDuraStatsResponse encodes a durability-stats response under the
// request's tagged envelope if any — the router's answer to a fan-out,
// with st carrying the fleet-summed counters and the per-backend rows
// in st.Backends.
func AppendDuraStatsResponse(e *snap.Encoder, info PeekInfo, st DuraStats) {
	appendEnvelope(e, info)
	st.encode(e) // encode writes the message type itself
}

// AppendErrorResponse encodes a non-retryable bad-request error under
// the request's tagged envelope if any — the router's answer to a frame
// it cannot classify or route.
func AppendErrorResponse(e *snap.Encoder, info PeekInfo, msg string) {
	appendEnvelope(e, info)
	(&errResp{Code: codeBadRequest, Msg: msg}).encode(e)
}

// AppendUnavailableResponse encodes a retryable draining error under
// the request's tagged envelope if any — the router's answer while a
// tenant's backend is unreachable or its migration is in flight; a
// well-behaved client (the load generator) backs off and retries.
func AppendUnavailableResponse(e *snap.Encoder, info PeekInfo, msg string) {
	appendEnvelope(e, info)
	(&errResp{Code: codeDraining, Msg: msg}).encode(e)
}
