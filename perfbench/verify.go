package main

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/sched"
	"repro/internal/serve"
)

// replay is the result a server tenant sent the first rounds of trace
// (wrapping around at its end) must report once drained.
func replay(tr *sched.Instance, rounds int) (*sched.Result, error) {
	inst := *tr
	inst.Requests = make([]sched.Request, rounds)
	for r := range inst.Requests {
		inst.Requests[r] = tr.Requests[r%len(tr.Requests)]
	}
	return serve.LocalReference(&inst, policySpec, resources, 1)
}

func sameResult(a, b *sched.Result) bool {
	return a.Policy == b.Policy && a.Cost == b.Cost &&
		a.Executed == b.Executed && a.Dropped == b.Dropped &&
		a.Reconfigs == b.Reconfigs && a.Rounds == b.Rounds &&
		slices.Equal(a.DropsByColor, b.DropsByColor) &&
		slices.Equal(a.ExecByColor, b.ExecByColor)
}

// verifyOutcome is the correctness check of one run.
type verifyOutcome struct {
	checked    int
	mismatches int // tenants that failed any check
	firstBad   string
	// worstReservedDF is the largest MaxDelayFactor over reserved
	// tenants (0 when none are reserved).
	worstReservedDF float64
}

// verify drains every tenant through its generator connection, then
// requires each drained Result to equal a local replay of the rounds it
// was sent, each tenant's ServedRounds to equal that round count, and
// each reserved tenant's MaxDelayFactor to be at most 1: its bounded-delay
// reservation held. sent[i] is the number of rounds tenant i was sent.
func verify(s *system, in *inputs, sent []int, tracks [2]*track, parent spanID) (verifyOutcome, error) {
	results := make([]*sched.Result, len(sent))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c := range s.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sp := tracks[c].begin("drain", parent, -1)
			defer tracks[c].end(sp)
			for i := c; i < len(sent); i += 2 {
				res, err := s.conns[c].DrainTenant(in.ids[i])
				if err != nil {
					errs[c] = fmt.Errorf("draining %s: %w", in.ids[i], err)
					return
				}
				results[i] = res
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return verifyOutcome{}, err
		}
	}
	rows := make(map[string]serve.TenantStats, len(sent))
	for _, cl := range s.ctrl {
		rs, err := cl.Stats("")
		if err != nil {
			return verifyOutcome{}, err
		}
		for _, r := range rs {
			rows[r.ID] = r
		}
	}
	type key struct{ trace, rounds int }
	refs := make(map[key]*sched.Result)
	var out verifyOutcome
	for i, n := range sent {
		k := key{in.traceOf[i], n}
		ref, ok := refs[k]
		if !ok {
			var err error
			if ref, err = replay(in.traces[k.trace], n); err != nil {
				return out, err
			}
			refs[k] = ref
		}
		out.checked++
		row, found := rows[in.ids[i]]
		reserved := s.w.proxied && !in.res[i].IsZero()
		bad := ""
		switch {
		case !found:
			bad = "no stats row"
		case row.ServedRounds != int64(n):
			bad = fmt.Sprintf("served %d rounds, sent %d", row.ServedRounds, n)
		case !sameResult(ref, results[i]):
			bad = fmt.Sprintf("result %v, replay %v", results[i], ref)
		case reserved && row.MaxDelayFactor > 1:
			bad = fmt.Sprintf("reserved %+v but delay factor %.3f > 1", in.res[i], row.MaxDelayFactor)
		}
		if bad != "" {
			out.mismatches++
			if out.firstBad == "" {
				out.firstBad = in.ids[i] + ": " + bad
			}
		}
		if reserved {
			out.worstReservedDF = max(out.worstReservedDF, row.MaxDelayFactor)
		}
	}
	return out, nil
}
