package proxy

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// startBackend boots one rrserved backend on a loopback port. Killing
// it mid-test with Close is fine — the cleanup's second Close is a
// no-op and still collects Serve's return.
func startBackend(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		s.Close()
		if err := <-done; err != nil {
			t.Errorf("backend serve: %v", err)
		}
	})
	return s
}

// startFleet boots n backends plus a proxy over them (and a standby
// backend when withStandby). It returns the proxy, the backends, and
// the standby (nil without one).
func startFleet(t *testing.T, n int, withStandby bool) (*Proxy, []*serve.Server, *serve.Server) {
	t.Helper()
	backends := make([]*serve.Server, n)
	addrs := make([]string, n)
	for i := range backends {
		backends[i] = startBackend(t, serve.Config{})
		addrs[i] = backends[i].Addr().String()
	}
	var standby *serve.Server
	cfg := Config{Addr: "127.0.0.1:0", Backends: addrs, Logf: t.Logf}
	if withStandby {
		standby = startBackend(t, serve.Config{})
		cfg.Standby = standby.Addr().String()
	}
	px, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- px.Serve() }()
	t.Cleanup(func() {
		px.Close()
		if err := <-done; err != nil {
			t.Errorf("proxy serve: %v", err)
		}
	})
	return px, backends, standby
}

// TestProxyBasicVerify: a full verified load run through the proxy must
// be indistinguishable from one against a single server — every round
// admitted exactly once, results bit-identical to the local replay —
// while the tenants actually spread across all backends.
func TestProxyBasicVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test")
	}
	for _, mode := range []struct {
		name            string
		pipeline, batch int
	}{
		{"strict", 0, 0},
		{"pipelined", 16, 4},
	} {
		t.Run(mode.name, func(t *testing.T) {
			px, backends, _ := startFleet(t, 3, false)
			rep, err := serve.RunLoad(serve.LoadConfig{
				Addr:     px.Addr().String(),
				Tenants:  32,
				Params:   workload.Params{Rounds: 40, Seed: 7},
				Pipeline: mode.pipeline,
				Batch:    mode.batch,
				Verify:   true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Mismatches) != 0 {
				t.Fatalf("tenants with non-identical results through proxy: %v", rep.Mismatches)
			}
			if want := int64(32 * 40); rep.RoundsSent != want {
				t.Fatalf("RoundsSent = %d, want %d", rep.RoundsSent, want)
			}
			if rep.Reconnects != 0 {
				t.Fatalf("healthy fleet forced %d reconnects", rep.Reconnects)
			}
			total := 0
			for i, b := range backends {
				n := b.NumTenants()
				if n == 0 {
					t.Errorf("backend %d hosts no tenants — sharding is not spreading", i)
				}
				total += n
			}
			if total != 32 {
				t.Fatalf("backends host %d tenants total, want 32", total)
			}
		})
	}
}

// TestProxyStatsFanout: ping and all-tenant stats are answered at the
// proxy by fanning out and merging — rows sorted by tenant ID, service
// shares recomputed fleet-wide — while single-tenant requests relay to
// the owning backend.
func TestProxyStatsFanout(t *testing.T) {
	px, backends, _ := startFleet(t, 2, false)
	addrs := []string{backends[0].Addr().String(), backends[1].Addr().String()}

	// Pick tenant names landing two on each backend, so the merge has
	// real work on both sides.
	names := make([]string, 0, 4)
	perNode := make(map[int]int)
	for i := 0; len(names) < 4; i++ {
		name := fmt.Sprintf("stat-%03d", i)
		node := Pick(addrs, name)
		if perNode[node] < 2 {
			perNode[node]++
			names = append(names, name)
		}
	}

	c, err := serve.Dial(px.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tc := serve.TenantConfig{Policy: "edf", N: 4, Delta: 4, Delays: []int{2, 6}}
	for _, name := range names {
		if _, _, err := c.Open(name, tc); err != nil {
			t.Fatalf("open %s through proxy: %v", name, err)
		}
		if _, _, err := c.Submit(name, 0, sched.Request{{Color: 0, Count: 1}}); err != nil {
			t.Fatalf("submit %s through proxy: %v", name, err)
		}
		if _, err := c.DrainTenant(name); err != nil {
			t.Fatalf("drain %s through proxy: %v", name, err)
		}
	}
	if backends[0].NumTenants() != 2 || backends[1].NumTenants() != 2 {
		t.Fatalf("tenants split %d/%d across backends, want 2/2",
			backends[0].NumTenants(), backends[1].NumTenants())
	}

	draining, tenants, err := c.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if draining || tenants != 4 {
		t.Fatalf("fleet ping = (draining %v, tenants %d), want (false, 4)", draining, tenants)
	}

	rows, err := c.Stats("")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("fleet stats returned %d rows, want 4", len(rows))
	}
	var shares float64
	for i, r := range rows {
		if i > 0 && rows[i-1].ID >= r.ID {
			t.Fatalf("fleet stats rows not sorted: %q before %q", rows[i-1].ID, r.ID)
		}
		if r.ServedRounds != 1 {
			t.Fatalf("tenant %s ServedRounds = %d, want 1", r.ID, r.ServedRounds)
		}
		shares += r.ServiceShare
	}
	if shares < 0.999 || shares > 1.001 {
		t.Fatalf("fleet-wide service shares sum to %v, want 1", shares)
	}

	one, err := c.Stats(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].ID != names[0] {
		t.Fatalf("single-tenant stats through proxy = %+v, want one row for %s", one, names[0])
	}
}

// TestProxyMigrateUnderLoad moves a tenant between backends in the
// middle of a verified load run: the release tombstone and the
// sequence-checked restore must make the move invisible — no round
// lost, none duplicated, results bit-identical.
func TestProxyMigrateUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test")
	}
	px, backends, _ := startFleet(t, 3, false)
	addrs := make([]string, len(backends))
	for i, b := range backends {
		addrs[i] = b.Addr().String()
	}

	var rep *serve.LoadReport
	var lerr error
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		rep, lerr = serve.RunLoad(serve.LoadConfig{
			Addr:         px.Addr().String(),
			Tenants:      16,
			Params:       workload.Params{Rounds: 80, Seed: 5},
			Rate:         120,
			Verify:       true,
			RetryTimeout: 20 * time.Second,
		})
	}()

	time.Sleep(200 * time.Millisecond) // land the migration mid-run
	tenant := "load-004"
	home := addrs[Pick(addrs, tenant)]
	target := addrs[0]
	if target == home {
		target = addrs[1]
	}
	if err := px.Migrate(tenant, target); err != nil {
		t.Fatalf("migrate %s -> %s: %v", tenant, target, err)
	}
	px.mu.Lock()
	ov, pinned := px.overrides[tenant]
	px.mu.Unlock()
	if !pinned || ov != target {
		t.Fatalf("override after migrate = (%q, %v), want pin to %s", ov, pinned, target)
	}

	time.Sleep(100 * time.Millisecond)
	// Migrate back home: the override must dissolve into the hash route.
	if err := px.Migrate(tenant, home); err != nil {
		t.Fatalf("migrate %s back home: %v", tenant, err)
	}
	px.mu.Lock()
	_, pinned = px.overrides[tenant]
	px.mu.Unlock()
	if pinned {
		t.Fatalf("override survived a migration back to the hash home")
	}

	<-loadDone
	if lerr != nil {
		t.Fatal(lerr)
	}
	if len(rep.Mismatches) != 0 {
		t.Fatalf("tenants with non-identical results across migration: %v", rep.Mismatches)
	}
	// The tenant really lives at home again: ask the backend directly.
	hc, err := serve.Dial(home)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	rows, err := hc.Stats(tenant)
	if err != nil {
		t.Fatalf("stats for migrated-back tenant on its home backend: %v", err)
	}
	if len(rows) != 1 || rows[0].ID != tenant {
		t.Fatalf("home backend rows = %+v, want exactly %s", rows, tenant)
	}
}

// TestProxyFailover is the acceptance scenario: 3 backends plus a warm
// standby, a verified load run, one backend killed mid-run. Its tenants
// must fail over to the standby — which has been replaying the teed
// submit stream — and every final result must stay bit-identical to the
// local replay, in both the strict and pipelined driver modes.
func TestProxyFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration test")
	}
	for _, mode := range []struct {
		name            string
		pipeline, batch int
	}{
		{"strict", 0, 0},
		{"pipelined", 16, 4},
	} {
		t.Run(mode.name, func(t *testing.T) {
			px, backends, standby := startFleet(t, 3, true)
			addrs := make([]string, len(backends))
			for i, b := range backends {
				addrs[i] = b.Addr().String()
			}

			var rep *serve.LoadReport
			var lerr error
			loadDone := make(chan struct{})
			go func() {
				defer close(loadDone)
				rep, lerr = serve.RunLoad(serve.LoadConfig{
					Addr:         px.Addr().String(),
					Tenants:      64,
					Params:       workload.Params{Rounds: 80, Seed: 5},
					Rate:         120, // ~670ms of paced submits per tenant
					Pipeline:     mode.pipeline,
					Batch:        mode.batch,
					Verify:       true,
					RetryTimeout: 20 * time.Second,
				})
			}()

			time.Sleep(250 * time.Millisecond) // land the kill mid-run
			victim := Pick(addrs, "load-000")  // guaranteed to own tenants
			if err := backends[victim].Close(); err != nil {
				t.Fatal(err)
			}

			<-loadDone
			if lerr != nil {
				t.Fatal(lerr)
			}
			if len(rep.Mismatches) != 0 {
				t.Fatalf("tenants with non-identical results across failover: %v", rep.Mismatches)
			}
			// Reconnects counts failed re-dial attempts and stays 0 here —
			// the proxy accepts the very first retry and routes it to the
			// standby. Resumes counts the reconnect-and-rewind itself, once
			// per torn-down victim connection.
			if rep.Resumes == 0 {
				t.Fatalf("killing a backend forced no resumes — did the kill land mid-run?")
			}

			px.mu.Lock()
			dead := px.dead[addrs[victim]]
			px.mu.Unlock()
			if !dead {
				t.Fatalf("proxy never marked the killed backend %s dead", addrs[victim])
			}
			if got := px.route("load-000"); got != standby.Addr().String() {
				t.Fatalf("route(load-000) = %q after its backend died, want standby %q",
					got, standby.Addr().String())
			}
			if standby.NumTenants() == 0 {
				t.Fatalf("standby hosts no tenants — the tee never replicated")
			}

			// The fleet view must still cover every tenant: live backends'
			// rows plus the standby's rows for the failed-over tenants.
			c, err := serve.Dial(px.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rows, err := c.Stats("")
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 64 {
				t.Fatalf("fleet stats after failover returned %d rows, want 64", len(rows))
			}
			if n := px.TeeDropped(); n > 0 {
				t.Logf("standby tee dropped %d frames (recovered via sequence rewind)", n)
			}
		})
	}
}

// TestProxyDuraStatsFanout: the durability-stats request (protocol v6)
// fans out like the scheduler stats — the proxy sums the counters
// across live backends and attaches a per-backend breakdown labelled
// by address. Two log-mode backends plus a memory-only one make the
// merged mode "mixed" and give the sum real work to add up.
func TestProxyDuraStatsFanout(t *testing.T) {
	// CheckpointEvery 1 makes every applied round append a log record,
	// so a submit + drain deterministically bumps the counters.
	cfgs := []serve.Config{
		{CheckpointDir: t.TempDir(), CheckpointEvery: 1},
		{CheckpointDir: t.TempDir(), CheckpointEvery: 1},
		{},
	}
	backends := make([]*serve.Server, len(cfgs))
	addrs := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		backends[i] = startBackend(t, cfg)
		addrs[i] = backends[i].Addr().String()
	}
	px, err := New(Config{Addr: "127.0.0.1:0", Backends: addrs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- px.Serve() }()
	t.Cleanup(func() {
		px.Close()
		if err := <-done; err != nil {
			t.Errorf("proxy serve: %v", err)
		}
	})

	c, err := serve.Dial(px.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Land at least one tenant on each durable backend so both log rows
	// carry non-zero append counts.
	perNode := map[int]int{}
	tc := serve.TenantConfig{Policy: "edf", N: 4, Delta: 4, Delays: []int{2, 6}}
	for i := 0; perNode[0] == 0 || perNode[1] == 0; i++ {
		name := fmt.Sprintf("dura-%03d", i)
		node := Pick(addrs, name)
		if node == 2 || perNode[node] > 0 {
			continue
		}
		perNode[node]++
		if _, _, err := c.Open(name, tc); err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		if _, _, err := c.Submit(name, 0, sched.Request{{Color: 0, Count: 1}}); err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		if _, err := c.DrainTenant(name); err != nil {
			t.Fatalf("drain %s: %v", name, err)
		}
	}

	st, err := c.DuraStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "mixed" {
		t.Fatalf("merged mode = %q, want \"mixed\" (log, log, off)", st.Mode)
	}
	if len(st.Backends) != 3 {
		t.Fatalf("fan-out returned %d backend rows, want 3", len(st.Backends))
	}
	byAddr := map[string]serve.BackendDuraStats{}
	var sumAppends, sumBytes int64
	for _, b := range st.Backends {
		if len(b.Backends) != 0 {
			t.Fatalf("backend row %s carries nested rows — fan-out must be one level", b.Addr)
		}
		byAddr[b.Addr] = b
		sumAppends += b.Appends
		sumBytes += b.Bytes
	}
	for i, addr := range addrs {
		row, ok := byAddr[addr]
		if !ok {
			t.Fatalf("no row for backend %s", addr)
		}
		wantMode := "log"
		if i == 2 {
			wantMode = "off"
		}
		if row.Mode != wantMode {
			t.Fatalf("backend %s mode = %q, want %q", addr, row.Mode, wantMode)
		}
		if i != 2 && row.Appends == 0 {
			t.Fatalf("durable backend %s shows zero appends after a submit", addr)
		}
	}
	if st.Appends != sumAppends || st.Bytes != sumBytes {
		t.Fatalf("top-level counters (%d appends, %d bytes) != sum of rows (%d, %d)",
			st.Appends, st.Bytes, sumAppends, sumBytes)
	}
	if st.Appends == 0 {
		t.Fatal("fleet-wide appends = 0 after submits on durable backends")
	}
}

// TestProxyMigrateAdmissionBounce: migrating a reserved tenant onto a
// backend whose shard cannot host the reservation must fail with the
// typed admission error, and the failed move must strand nothing — the
// restore-back path returns the tenant (reservation included) to the
// source, where it keeps serving. Freeing the target then lets the
// same migration succeed, reservation carried along.
func TestProxyMigrateAdmissionBounce(t *testing.T) {
	b0 := startBackend(t, serve.Config{Shards: 1, BDR: true})
	b1 := startBackend(t, serve.Config{Shards: 1, BDR: true})
	addrs := []string{b0.Addr().String(), b1.Addr().String()}
	px, err := New(Config{Addr: "127.0.0.1:0", Backends: addrs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- px.Serve() }()
	t.Cleanup(func() {
		px.Close()
		if err := <-done; err != nil {
			t.Errorf("proxy serve: %v", err)
		}
	})

	// A tenant name the hash routes to backend 0.
	name := ""
	for i := 0; name == ""; i++ {
		if cand := fmt.Sprintf("mv-%03d", i); Pick(addrs, cand) == 0 {
			name = cand
		}
	}

	// Backend 1's single shard is 0.8 reserved: a 0.6 restore cannot fit.
	cb, err := serve.Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	blocker := serve.TenantConfig{Policy: "edf", N: 4, Delta: 4, Delays: []int{2, 6},
		ResRate: 0.8, ResDelay: 32}
	if _, _, err := cb.Open("blocker", blocker); err != nil {
		t.Fatal(err)
	}

	c, err := serve.Dial(px.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tc := serve.TenantConfig{Policy: "edf", N: 4, Delta: 4, Delays: []int{2, 6},
		ResRate: 0.6, ResDelay: 32}
	if _, _, err := c.Open(name, tc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Submit(name, 0, sched.Request{{Color: 0, Count: 1}}); err != nil {
		t.Fatal(err)
	}

	var ae *serve.AdmissionError
	if err := px.Migrate(name, addrs[1]); !errors.As(err, &ae) {
		t.Fatalf("migrate onto overcommitted backend = %v, want *serve.AdmissionError", err)
	}

	// The bounce stranded nothing: the tenant is back on the source with
	// its reservation, and the proxy still serves it.
	if n := b0.NumTenants(); n != 1 {
		t.Fatalf("source hosts %d tenants after bounced migration, want 1", n)
	}
	rows, err := c.Stats(name)
	if err != nil || len(rows) != 1 {
		t.Fatalf("stats after bounce = (%v, %v)", rows, err)
	}
	if rows[0].ReservedRate != 0.6 || rows[0].ReservedDelay != 32 {
		t.Fatalf("reservation after bounce = (%g, %g), want (0.6, 32)",
			rows[0].ReservedRate, rows[0].ReservedDelay)
	}
	if _, _, err := c.Submit(name, 1, sched.Request{{Color: 1, Count: 1}}); err != nil {
		t.Fatalf("submit after bounced migration: %v", err)
	}

	// Free the target: the same migration now succeeds and the
	// reservation rides along.
	if _, err := cb.CloseTenant("blocker"); err != nil {
		t.Fatal(err)
	}
	if err := px.Migrate(name, addrs[1]); err != nil {
		t.Fatalf("migrate after freeing target: %v", err)
	}
	if n := b1.NumTenants(); n != 1 {
		t.Fatalf("target hosts %d tenants after migration, want 1", n)
	}
	rows, err = c.Stats(name)
	if err != nil || len(rows) != 1 || rows[0].ReservedRate != 0.6 {
		t.Fatalf("stats after successful migration = (%v, %v), want reserved rate 0.6", rows, err)
	}
}
