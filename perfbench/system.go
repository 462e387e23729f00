package main

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/bdr"
	"repro/internal/proxy"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// workloadSpec is one open-loop traffic mix. README.md explains why
// each exists and which layers it loads.
type workloadSpec struct {
	name    string
	tenants int
	batch   int     // rounds per submitted frame
	rate    float64 // offered rounds per second, whole system
	proxied bool    // two BDR backends behind a proxy; half the tenants reserved
}

var workloads = []workloadSpec{
	{name: "fleet-1k", tenants: 1024, batch: 8, rate: 60000},
	{name: "proxy-reserved", tenants: 256, batch: 1, rate: 12000, proxied: true},
}

func lookupWorkload(name string) (workloadSpec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

const (
	// traceKinds is k: tenants replay one of this many distinct router
	// traces, so generator memory and verification time do not grow
	// with the tenant count. Server state stays per tenant.
	traceKinds = 64
	// traceRounds is the length of each trace; a tenant that is sent
	// more rounds wraps around to the start.
	traceRounds = 1024
	policySpec  = "dlruedf"
	resources   = 8
	// reservedShare is the joint rate of all reservations, as a share
	// of one shard's rate: whichever backend the tenants hash to, every
	// admission fits.
	reservedShare = 0.5
)

// mix is a splitmix64 step: the benchmark derives every input from
// (seed, index) through it.
func mix(seed uint64, i int) uint64 {
	x := seed + 0x9E3779B97F4A7C15*uint64(i+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// inputs are everything a run sends, derived from the seed alone.
type inputs struct {
	traces  []*sched.Instance
	ids     []string
	traceOf []int     // tenant -> index into traces
	res     []bdr.BDR // tenant -> reservation; zero is best-effort
}

func makeInputs(w workloadSpec, seed uint64) (*inputs, error) {
	in := &inputs{
		ids:     make([]string, w.tenants),
		traceOf: make([]int, w.tenants),
		res:     make([]bdr.BDR, w.tenants),
	}
	for j := 0; j < traceKinds; j++ {
		tr, err := workload.Tenant("router", workload.Params{Seed: seed, Rounds: traceRounds}, j)
		if err != nil {
			return nil, err
		}
		in.traces = append(in.traces, tr)
	}
	// A seeded permutation picks the reserved half.
	order := make([]int, w.tenants)
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int(mix(seed^0x5bd1e995, i) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	reserved := w.tenants / 2
	for i := 0; i < w.tenants; i++ {
		h := mix(seed, i)
		in.ids[i] = fmt.Sprintf("t%04d-%06x", i, h&0xffffff)
		in.traceOf[i] = int(h>>32) % traceKinds
	}
	for _, i := range order[:reserved] {
		in.res[i] = bdr.BDR{
			Rate:  reservedShare / float64(reserved),
			Delay: float64(8 + mix(seed^0x2545f491, i)%57),
		}
	}
	return in, nil
}

func (in *inputs) tenantConfig(i int, withRes bool) serve.TenantConfig {
	tr := in.traces[in.traceOf[i]]
	tc := serve.TenantConfig{Policy: policySpec, N: resources, Speed: 1, Delta: tr.Delta, Delays: tr.Delays}
	if withRes {
		tc.ResRate, tc.ResDelay = in.res[i].Rate, in.res[i].Delay
	}
	return tc
}

// system is the in-process deployment under test: one server, or two
// BDR backends behind a proxy, plus the benchmark's two generator
// connections and one direct control connection per server.
type system struct {
	w        workloadSpec
	servers  []*serve.Server
	px       *proxy.Proxy
	conns    [2]*serve.Client
	recs     [2]*recordingConn // traced runs only
	ctrl     []*serve.Client
	serveErr chan error
	wg       sync.WaitGroup
}

// startServers constructs the servers (and proxy) and starts serving.
func (s *system) startServers() error {
	n := 1
	if s.w.proxied {
		n = 2
	}
	s.serveErr = make(chan error, n+1)
	var addrs []string
	for i := 0; i < n; i++ {
		srv, err := serve.NewServer(serve.Config{Addr: "127.0.0.1:0", BDR: s.w.proxied})
		if err != nil {
			return err
		}
		s.servers = append(s.servers, srv)
		addrs = append(addrs, srv.Addr().String())
		s.wg.Add(1)
		go func() { defer s.wg.Done(); s.serveErr <- srv.Serve() }()
	}
	if s.w.proxied {
		px, err := proxy.New(proxy.Config{Addr: "127.0.0.1:0", Backends: addrs})
		if err != nil {
			return err
		}
		s.px = px
		s.wg.Add(1)
		go func() { defer s.wg.Done(); s.serveErr <- px.Serve() }()
	}
	return nil
}

// frontAddr is where clients connect: the proxy, or the only server.
func (s *system) frontAddr() string {
	if s.px != nil {
		return s.px.Addr().String()
	}
	return s.servers[0].Addr().String()
}

// dial opens the generator and control connections. With record set,
// the generator connections copy what they send for the codec replay.
func (s *system) dial(record bool) error {
	for c := range s.conns {
		nc, err := net.Dial("tcp", s.frontAddr())
		if err != nil {
			return err
		}
		if record {
			s.recs[c] = &recordingConn{Conn: nc}
			nc = s.recs[c]
		}
		s.conns[c] = serve.NewClient(nc)
	}
	for _, srv := range s.servers {
		cl, err := serve.Dial(srv.Addr().String())
		if err != nil {
			return err
		}
		s.ctrl = append(s.ctrl, cl)
	}
	return nil
}

// openAll opens every tenant, connection c opening the tenants it owns
// (i%2 == c), both connections at once. It returns the number of
// failed opens and the first error.
func (s *system) openAll(in *inputs, tracks [2]*track, parent spanID) (failed int, err error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := range s.conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tk := tracks[c]
			for i := c; i < s.w.tenants; i += 2 {
				sp := tk.begin("open", parent, -1)
				_, _, oerr := s.conns[c].Open(in.ids[i], in.tenantConfig(i, s.w.proxied))
				tk.end(sp)
				if oerr != nil {
					mu.Lock()
					failed++
					if err == nil {
						err = fmt.Errorf("opening %s: %w", in.ids[i], oerr)
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return failed, err
}

// close tears everything down and waits
// for every serving goroutine to return.
func (s *system) close() error {
	var errs []error
	for _, cl := range s.conns {
		if cl != nil {
			cl.Close()
		}
	}
	for _, cl := range s.ctrl {
		cl.Close()
	}
	if s.px != nil {
		errs = append(errs, s.px.Close())
	}
	for _, srv := range s.servers {
		errs = append(errs, srv.Close())
	}
	s.wg.Wait()
	close(s.serveErr)
	for err := range s.serveErr {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// servedRounds sums ServedRounds over every tenant of every server.
func (s *system) servedRounds() (int64, error) {
	var n int64
	for _, cl := range s.ctrl {
		rows, err := cl.Stats("")
		if err != nil {
			return 0, err
		}
		for _, r := range rows {
			n += r.ServedRounds
		}
	}
	return n, nil
}

// recordingConn copies the bytes a client writes while on, up to a cap,
// so the traced run can replay the frames actually sent through the
// codec. Only the connection's generator goroutine toggles on.
type recordingConn struct {
	net.Conn
	on  bool
	buf []byte
}

const recordCap = 4 << 20

func (r *recordingConn) Write(p []byte) (int, error) {
	if room := recordCap - len(r.buf); r.on && room > 0 {
		r.buf = append(r.buf, p[:min(len(p), room)]...)
	}
	return r.Conn.Write(p)
}
