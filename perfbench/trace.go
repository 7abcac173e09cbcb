package main

import (
	"sync"
	"time"

	"hetmr/internal/engine"
	"hetmr/internal/metrics"
	"hetmr/internal/netmr"
)

// pollEvery is the traced run's JobHandle.Status interval: phase
// boundaries are known to within it.
const pollEvery = time.Millisecond

// counters is a snapshot of the counters the layers export, read
// before and after each traced job.
type counters struct {
	wireRaw   int64 // metrics.WireBytesRaw
	spill     int64 // metrics.SpillBytes
	dataPlane int64 // JobTracker.DataPlaneBytes
	dnSpill   int64 // Σ DataNode.SpilledBytes
	ttSpill   int64 // Σ TaskTracker.SpilledBytes
	granted   int64 // TenantStats()[DefaultTenant].Granted
	accel     int64 // Σ TaskTracker.AccelTasks
}

func snapshot(c *netmr.Cluster) counters {
	s := counters{
		wireRaw:   metrics.WireBytesRaw.Load(),
		spill:     metrics.SpillBytes.Load(),
		dataPlane: c.JT.DataPlaneBytes(),
		granted:   c.JT.TenantStats()[netmr.DefaultTenant].Granted,
	}
	for _, dn := range c.DNs {
		s.dnSpill += dn.SpilledBytes()
	}
	for _, tt := range c.TTs {
		s.ttSpill += tt.SpilledBytes()
		s.accel += tt.AccelTasks()
	}
	return s
}

func (s counters) sub(o counters) counters {
	return counters{
		wireRaw:   s.wireRaw - o.wireRaw,
		spill:     s.spill - o.spill,
		dataPlane: s.dataPlane - o.dataPlane,
		dnSpill:   s.dnSpill - o.dnSpill,
		ttSpill:   s.ttSpill - o.ttSpill,
		granted:   s.granted - o.granted,
		accel:     s.accel - o.accel,
	}
}

// Job phases, in order. Ingest is the Submit call (DFS staging plus
// range sampling); map runs from Submit's return until Status shows
// every map task complete; reduce until Status shows Done; drain until
// Wait returns (output streamed to the sink, or the client's own poll
// lag noticing Done).
const (
	phIngest = iota
	phMap
	phReduce
	phDrain
	numPhases
)

var phaseNames = [numPhases]string{"ingest", "map", "reduce", "drain"}

// jobTrace is one traced job's timeline.
type jobTrace struct {
	wall      time.Duration
	phase     [numPhases]time.Duration
	cpu       [numPhases]time.Duration
	grantWait time.Duration // Submit return → first task complete
	tasks     int           // Status.Total
	// covered sums the phases whose end the trace saw: a map or
	// reduce phase whose end the poller missed before Wait returned
	// is closed at Wait's return but not counted here.
	covered time.Duration
}

// mark is a wall and CPU timestamp.
type mark struct {
	at  time.Time
	cpu time.Duration
}

func now() mark { return mark{time.Now(), cpuTime()} }

// runTraced submits job and waits for it while a second goroutine
// polls its Status every pollEvery to find the phase boundaries.
func runTraced(cl *engine.Client, job *engine.Job, reducers int) (*engine.Result, jobTrace, error) {
	var tr jobTrace
	start := now()
	h, err := cl.Submit(job)
	submitted := now()
	if err != nil {
		return nil, tr, err
	}
	var (
		first, mapEnd, done mark
		total               int
		wg                  sync.WaitGroup
	)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			st, err := h.Status()
			m := now()
			if err == nil {
				total = st.Total
				if first.at.IsZero() && st.Completed > 0 {
					first = m
				}
				if mapEnd.at.IsZero() && (st.Done || st.Completed >= st.Total-reducers) {
					mapEnd = m
				}
				if st.Done {
					done = m
					return
				}
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	res, err := h.Wait()
	end := now()
	close(stop)
	wg.Wait()
	// A boundary the poller had not seen by the time Wait returned
	// closes at Wait's return.
	seen := [numPhases]bool{true, !mapEnd.at.IsZero(), !done.at.IsZero(), true}
	for _, m := range []*mark{&first, &mapEnd, &done} {
		if m.at.IsZero() {
			*m = end
		}
	}
	bounds := [numPhases + 1]mark{start, submitted, mapEnd, done, end}
	for p := 0; p < numPhases; p++ {
		tr.phase[p] = bounds[p+1].at.Sub(bounds[p].at)
		tr.cpu[p] = bounds[p+1].cpu - bounds[p].cpu
		if seen[p] {
			tr.covered += tr.phase[p]
		}
	}
	tr.wall = end.at.Sub(start.at)
	tr.grantWait = first.at.Sub(submitted.at)
	tr.tasks = total
	return res, tr, err
}

// runPlain submits job and waits for it, timing the whole span.
func runPlain(cl *engine.Client, job *engine.Job) (*engine.Result, time.Duration, error) {
	start := time.Now()
	h, err := cl.Submit(job)
	if err != nil {
		return nil, time.Since(start), err
	}
	res, err := h.Wait()
	return res, time.Since(start), err
}
