package main

import (
	"time"

	"repro/internal/sched"
	"repro/internal/serve"
)

// tickEvery is the generator's pacing tick. A sleeping goroutine wakes
// up to about 1ms late (the runtime's idle poll has millisecond
// resolution), so a tick leaves room for that slop plus the tick's own
// work before the next one is due.
const tickEvery = 4 * time.Millisecond

// schedule is the shared open-loop timetable of one run.
type schedule struct {
	start   time.Time // tick 0 of connection 0
	measure time.Time // first measured tick (after warm-up)
	traced  time.Time // first traced tick; after end when untraced
	end     time.Time // first tick not sent
}

// genConn drives one client connection: every tick it stages the frames
// that have come due, round-robin over the tenants it owns, then
// flushes and reaps every acknowledgement.
type genConn struct {
	cl        *serve.Client
	in        *inputs
	owned     []int // tenant indexes this connection owns
	seq       []int // next round sequence per owned tenant
	batch     int
	perTick   float64 // frames per tick
	offset    time.Duration
	tk        *track         // nil in untraced runs
	rec       *recordingConn // records the traced ticks' bytes; nil in untraced runs
	framesAll int64          // frames staged so far (the frame id)

	// Per-tick state read by the ack callback.
	latStart time.Time
	second   int // index of the measured second the tick is in; -1 in warm-up

	// Results.
	lats        [][]time.Duration // per measured second: each frame's start -> ack read
	ticks       int               // measured ticks
	behindTicks int               // measured ticks already due when the generator got to them
	lateTicks   int               // measured ticks reached a whole tick or more late
	lostTicks   int               // late ticks still a tick late net of host stalls
	late        []time.Duration   // measured ticks: how late staging began
	frames      int64             // frames acknowledged
	failed      int64             // frames not fully admitted
	firstErr    error
	batchBuf    []sched.Request
}

func newGenConn(c int, w workloadSpec, in *inputs, cl *serve.Client, tk *track, rec *recordingConn) *genConn {
	g := &genConn{cl: cl, in: in, batch: w.batch, tk: tk, rec: rec,
		offset: time.Duration(c) * tickEvery / 2}
	for i := c; i < w.tenants; i += 2 {
		g.owned = append(g.owned, i)
	}
	g.seq = make([]int, len(g.owned))
	g.perTick = w.rate / 2 / float64(w.batch) * tickEvery.Seconds()
	g.batchBuf = make([]sched.Request, w.batch)
	return g
}

func (g *genConn) onAck(r serve.SubmitResult) {
	if r.Err != nil || r.Admitted != r.Rounds {
		g.failed++
		if g.firstErr == nil {
			g.firstErr = r.Err
		}
	}
	g.frames++
	if g.second >= 0 {
		g.lats[g.second] = append(g.lats[g.second], time.Since(g.latStart))
	}
}

func (g *genConn) round(tenant, seq int) sched.Request {
	tr := g.in.traces[g.in.traceOf[tenant]]
	return tr.Requests[seq%len(tr.Requests)]
}

// run paces ticks from sc.start until sc.end; g.seq then holds the
// rounds sent to each owned tenant. A frame's latency starts
// when the generator woke for its tick, or at the tick's intended time
// if the generator was already behind: then the wait is a stall the
// server imposed, while a late wake-up is the OS timer's.
//
// A tick is lost when it was reached a whole tick or more late even
// after taking off the time the process spent off the CPU while
// behind: on a shared VM the host stops the vCPU for 5–50ms at a time,
// and such a stall says nothing about whether the process can carry the
// offered load. While the generator is behind the process has work
// queued, so wall time it did not spend on a CPU since the previous
// tick began is counted as a stall. A program that blocks off the CPU
// while serving is not caught by this count, but still shows in ack
// latency, which the open-loop rule charges from the intended time.
func (g *genConn) run(sc schedule, root spanID) error {
	g.lats = make([][]time.Duration, int(sc.end.Sub(sc.measure)/time.Second)+1)
	pl := g.cl.NewPipeline(serve.MaxPipeline, g.onAck)
	var prevWall time.Time
	var prevCPU, stalled time.Duration // stalled: off-CPU time during the current streak of behind ticks
	for t := 0; ; t++ {
		intended := sc.start.Add(g.offset + time.Duration(t)*tickEvery)
		if !intended.Before(sc.end) {
			break
		}
		g.second = -1
		if !intended.Before(sc.measure) {
			g.second = int(intended.Sub(sc.measure) / time.Second)
		}
		var lag time.Duration // how far past its intended time the tick was reached
		now := time.Now()
		if now.Before(intended) {
			time.Sleep(intended.Sub(now))
			now = time.Now()
			g.latStart = now
			stalled = 0
		} else {
			g.latStart, lag = intended, now.Sub(intended)
		}
		cpu := cpuTime()
		if lag > 0 && t > 0 {
			stalled += max(now.Sub(prevWall)-(cpu-prevCPU), 0)
		}
		prevWall, prevCPU = now, cpu
		if g.second >= 0 {
			g.ticks++
			if lag > 0 {
				g.behindTicks++
			}
			if lag >= tickEvery {
				g.lateTicks++
			}
			if lag-stalled >= tickEvery {
				g.lostTicks++
			}
			g.late = append(g.late, time.Since(intended))
		}
		tk := g.tk
		if intended.Before(sc.traced) {
			tk = nil
		} else if g.rec != nil {
			g.rec.on = true
		}
		tick := tk.begin("tick", root, -1)
		due := int64(float64(t+1) * g.perTick)
		for ; g.framesAll < due; g.framesAll++ {
			slot := int(g.framesAll % int64(len(g.owned)))
			ti, seq := g.owned[slot], g.seq[slot]
			st := tk.begin("stage", tick, g.framesAll)
			var err error
			if g.batch == 1 {
				err = pl.Submit(g.in.ids[ti], seq, g.round(ti, seq))
			} else {
				for b := range g.batchBuf {
					g.batchBuf[b] = g.round(ti, seq+b)
				}
				err = pl.SubmitBatch(g.in.ids[ti], seq, g.batchBuf)
			}
			tk.end(st)
			if err != nil {
				return err
			}
			g.seq[slot] += g.batch
		}
		fl := tk.begin("flush", tick, -1)
		err := pl.Flush()
		tk.end(fl)
		tk.end(tick)
		if err != nil {
			return err
		}
	}
	if g.rec != nil {
		g.rec.on = false
	}
	return nil
}
