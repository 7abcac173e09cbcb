// Command perfbench is hetmr's end-to-end benchmark. It boots the net
// backend in-process through engine.Open, prepares one workload's
// inputs from a seed, and submits its jobs from a single client
// goroutine, one job in flight, for a fixed time. Every output is
// checked. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run alternates untraced and traced jobs, then walks the layer
// ladder, and the metrics are the per-layer ones. METRICS.md defines
// every metric. Build and run it through run.sh from the repository
// root:
//
//	bash perfbench/run.sh --workload terasort --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"hetmr/internal/engine"
	"hetmr/internal/netmr"
)

// setupReps is how many times a run boots the cluster to time set-up;
// setup_s is their median.
const setupReps = 21

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "terasort, encrypt or pi_floor")
		seed    = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 20, "how long the timed jobs run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	w, ok := workloads[*name]
	if !ok {
		log.Fatalf("unknown workload %q (want terasort, encrypt or pi_floor)", *name)
	}
	rep, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		log.Fatal(err)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

// bench is one run in progress: a workload on a booted cluster.
type bench struct {
	w    *workload
	in   feeder
	cl   *engine.Client
	clus *netmr.Cluster
	next int // index of the next job
	// spillDir holds every spill file of the cluster's stores: staged
	// DFS blocks, map outputs and spilled partitions.
	spillDir string

	attempted, failed, wrong int
	checks                   []func() error
}

// run makes one run of workload w. Its scratch files live under
// .bench_build in the working directory and are removed at the end.
func run(w *workload, seed uint64, dur time.Duration, traced bool) (*report, error) {
	dir := filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t := time.Now()
	in, err := w.prepare(dir, seed)
	if err != nil {
		return nil, err
	}
	log.Printf("%s: inputs ready in %.3fs", w.name, time.Since(t).Seconds())

	spillDir := filepath.Join(dir, "spill")
	if err := os.Mkdir(spillDir, 0o755); err != nil {
		return nil, err
	}
	// Write the inputs just made back to disk, so that the harness's
	// own writeback does not land in the first jobs. The jobs' own
	// writes are not flushed: each job pays for what the jobs before it
	// left dirty.
	syscall.Sync()
	setup, cl, err := openCluster(w.config(spillDir))
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	b := &bench{w: w, in: in, cl: cl, clus: netCluster(cl), spillDir: spillDir}

	var first time.Duration
	for i := 0; i < w.warmup; i++ {
		d, err := b.warm()
		if err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		if i == 0 {
			first = d
		}
	}
	log.Printf("%s: set-up %.3fs, first job %.3fs", w.name, setup, first.Seconds())

	var m map[string]metric
	if traced {
		m, err = b.traced(dur, dir, seed)
	} else {
		m, err = b.plain(dur)
	}
	if err != nil {
		return nil, err
	}
	rep := b.report(m)
	if traced {
		delete(rep.Metrics, "success_rate")
		rep.Metrics["warmup.first_job_s"] = metric{first.Seconds(), "s"}
	} else {
		rep.Metrics["setup_s"] = metric{setup, "s"}
	}
	return rep, nil
}

// report runs the queued output checks and books the run's outcome:
// failed counts jobs that returned an error or wrong output, and
// success_rate is the share of attempted jobs that did neither.
func (b *bench) report(m map[string]metric) *report {
	for _, check := range b.checks {
		if err := check(); err != nil {
			b.wrong++
			log.Printf("%s: wrong output: %v", b.w.name, err)
		}
	}
	b.checks = nil
	rep := &report{
		Correct:   b.wrong == 0,
		Attempted: b.attempted,
		Failed:    b.failed + b.wrong,
		Metrics:   m,
	}
	rep.Metrics["success_rate"] = metric{1 - float64(rep.Failed)/float64(rep.Attempted), "ratio"}
	return rep
}

// openCluster boots the net backend setupReps times, each until every
// tracker and DataNode has registered, keeps the last cluster and
// returns the median boot time in seconds.
func openCluster(cfg engine.Config) (float64, *engine.Client, error) {
	var times []float64
	var cl *engine.Client
	for i := 0; i < setupReps; i++ {
		if cl != nil {
			cl.Close()
		}
		t := time.Now()
		var err error
		if cl, err = engine.Open("net", cfg); err != nil {
			return 0, nil, err
		}
		if err := waitReady(netCluster(cl), cfg.Workers); err != nil {
			cl.Close()
			return 0, nil, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return median(times), cl, nil
}

// netCluster returns the daemons behind a net-backend client.
func netCluster(cl *engine.Client) *netmr.Cluster {
	return cl.Runner().(interface{ Cluster() *netmr.Cluster }).Cluster()
}

// waitReady polls the masters until n trackers and n DataNodes are
// alive.
func waitReady(c *netmr.Cluster, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		tts, err := c.Client.ListTrackers()
		if err != nil {
			return err
		}
		dns, err := c.Client.ListDataNodes()
		if err != nil {
			return err
		}
		if countAlive(tts, func(t netmr.TrackerInfo) string { return t.State }) >= n &&
			countAlive(dns, func(d netmr.DataNodeInfo) string { return d.State }) >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster not ready after 30s: %d trackers, %d DataNodes", len(tts), len(dns))
		}
		time.Sleep(time.Millisecond)
	}
}

func countAlive[T any](xs []T, state func(T) string) int {
	n := 0
	for _, x := range xs {
		if state(x) == "alive" {
			n++
		}
	}
	return n
}

// take hands out the next job, having settled the process for it.
func (b *bench) take() (*pendingJob, error) {
	if err := settle(); err != nil {
		return nil, err
	}
	p, err := b.in.job(b.next)
	b.next++
	return p, err
}

// finish books a completed job: a failure counts at once, the output
// check is queued to run off the clock.
func (b *bench) finish(p *pendingJob, res *engine.Result, err error) bool {
	p.release()
	b.attempted++
	if err != nil {
		b.failed++
		log.Printf("%s: job %d failed: %v", b.w.name, b.next-1, err)
		return false
	}
	b.checks = append(b.checks, func() error { return p.check(res) })
	return true
}

// warm runs one untimed job and returns its time.
func (b *bench) warm() (time.Duration, error) {
	p, err := b.take()
	if err != nil {
		return 0, err
	}
	res, d, err := runPlain(b.cl, p.job)
	p.release()
	if err == nil {
		err = p.check(res)
	}
	return d, err
}

// jobRecord is one successful job's measurements.
type jobRecord struct {
	wall, cpu time.Duration
	peak      int64 // VmHWM over the job, in bytes
	trace     jobTrace
	delta     counters // layer counters over the job (traced jobs)
	retained  int64    // spill-dir bytes left on disk by the job (traced jobs)
	res       *engine.Result
}

// runOne settles the process, runs the next job, traced or not, and
// books it. ok reports whether the job succeeded; its output is
// checked later, off the clock.
func (b *bench) runOne(traced bool) (rec jobRecord, ok bool, err error) {
	p, err := b.take()
	if err != nil {
		return rec, false, err
	}
	var c0 counters
	var disk0 int64
	if traced {
		c0 = snapshot(b.clus)
		if disk0, err = dirBytes(b.spillDir); err != nil {
			return rec, false, err
		}
	}
	cpu0 := cpuTime()
	var jobErr error
	if traced {
		rec.res, rec.trace, jobErr = runTraced(b.cl, p.job, b.w.reducers)
		rec.wall = rec.trace.wall
	} else {
		rec.res, rec.wall, jobErr = runPlain(b.cl, p.job)
	}
	rec.cpu = cpuTime() - cpu0
	if rec.peak, err = peakRSS(); err != nil {
		return rec, false, err
	}
	if traced {
		rec.delta = snapshot(b.clus).sub(c0)
		disk1, err := dirBytes(b.spillDir)
		if err != nil {
			return rec, false, err
		}
		rec.retained = disk1 - disk0
	}
	log.Printf("%s: job %d %.3fs", b.w.name, b.next-1, rec.wall.Seconds())
	return rec, b.finish(p, rec.res, jobErr), nil
}

// walls returns the jobs' wall times in seconds.
func walls(recs []jobRecord) []float64 {
	ws := make([]float64, len(recs))
	for i, r := range recs {
		ws[i] = r.wall.Seconds()
	}
	return ws
}

// plain is the untraced run: jobs back to back until dur has passed
// and at least minJobs have run. The metrics are taken over every job
// that succeeded.
func (b *bench) plain(dur time.Duration) (map[string]metric, error) {
	var recs []jobRecord
	for start := time.Now(); b.attempted < b.w.minJobs || time.Since(start) < dur; {
		rec, ok, err := b.runOne(false)
		if err != nil {
			return nil, err
		}
		if ok {
			recs = append(recs, rec)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("all %d jobs failed", b.attempted)
	}
	ws := walls(recs)
	var cpu float64
	peaks := make([]float64, len(recs))
	for i, r := range recs {
		cpu += r.cpu.Seconds()
		peaks[i] = float64(r.peak) / MB
	}
	p50 := median(ws)
	log.Printf("%s: %d jobs timed, median %.3fs", b.w.name, len(recs), p50)
	return map[string]metric{
		"throughput_MBps": {float64(b.w.workBytes) / MB / p50, "MB/s"},
		"job_ms_p50":      {p50 * 1e3, "ms"},
		"job_ms_p90":      {quantile(ws, 0.9) * 1e3, "ms"},
		"jobs_per_s":      {float64(len(recs)) / sum(ws), "1/s"},
		"cpu_s_per_job":   {cpu / float64(len(recs)), "s"},
		"peak_rss_MB":     {median(peaks), "MB"},
	}, nil
}

// traced is the traced run: untraced and traced jobs alternate until
// dur has passed (at least minJobs/2 of each), then the layer ladder
// runs. Each per-layer figure is the median over the traced jobs that
// succeeded. host.steal_share is the share of the machine's CPU time
// the hypervisor stole while the jobs ran: it tells a noisy run apart,
// and no job is left out for it.
func (b *bench) traced(dur time.Duration, dir string, seed uint64) (map[string]metric, error) {
	var plainRecs, tracedRecs []jobRecord
	half := (b.w.minJobs + 1) / 2
	total0, steal0, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	for start, i := time.Now(), 0; len(plainRecs) < half || len(tracedRecs) < half || time.Since(start) < dur; i++ {
		rec, ok, err := b.runOne(i%2 == 1)
		if err != nil {
			return nil, err
		}
		switch {
		case !ok:
		case i%2 == 1:
			tracedRecs = append(tracedRecs, rec)
		default:
			plainRecs = append(plainRecs, rec)
		}
	}
	if len(tracedRecs) == 0 || len(plainRecs) == 0 {
		return nil, fmt.Errorf("no job succeeded in the traced run (%d attempted)", b.attempted)
	}
	total1, steal1, err := cpuTicks()
	if err != nil {
		return nil, err
	}
	overhead := median(walls(tracedRecs)) / median(walls(plainRecs))
	log.Printf("%s: %d untraced and %d traced jobs", b.w.name, len(plainRecs), len(tracedRecs))
	recs := tracedRecs
	var fetchPeak float64
	for _, tt := range b.clus.TTs {
		if lim := tt.FetchWindowLimit(); lim > 0 {
			fetchPeak = math.Max(fetchPeak, float64(tt.FetchWindowPeak())/float64(lim))
		}
	}

	m := map[string]metric{}
	per := func(name, unit string, f func(r jobRecord) float64) {
		xs := make([]float64, len(recs))
		for i, r := range recs {
			xs[i] = f(r)
		}
		m[name] = metric{median(xs), unit}
	}
	input := float64(b.w.dataBytes)
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	nproc := float64(runtime.NumCPU())
	per("engine.submit_s", "s", func(r jobRecord) float64 { return r.trace.phase[phIngest].Seconds() })
	per("netmr.map_s", "s", func(r jobRecord) float64 { return r.trace.phase[phMap].Seconds() })
	per("netmr.reduce_s", "s", func(r jobRecord) float64 { return r.trace.phase[phReduce].Seconds() })
	per("netmr.drain_s", "s", func(r jobRecord) float64 { return r.trace.phase[phDrain].Seconds() })
	per("netmr.grant_wait_ms", "ms", func(r jobRecord) float64 { return r.trace.grantWait.Seconds() * 1e3 })
	for p, name := range phaseNames {
		p := p
		per("cpu_busy."+name, "ratio", func(r jobRecord) float64 {
			return ratio(r.trace.cpu[p].Seconds(), r.trace.phase[p].Seconds()*nproc)
		})
	}
	per("trace.coverage", "ratio", func(r jobRecord) float64 {
		return ratio(r.trace.covered.Seconds(), r.trace.wall.Seconds())
	})
	per("rpcnet.wire_raw_MB", "MB", func(r jobRecord) float64 { return float64(r.delta.wireRaw) / MB })
	per("rpcnet.wire_amp", "ratio", func(r jobRecord) float64 { return ratio(float64(r.delta.wireRaw), input) })
	per("spill.written_MB", "MB", func(r jobRecord) float64 { return float64(r.delta.spill) / MB })
	per("spill.write_amp", "ratio", func(r jobRecord) float64 { return ratio(float64(r.delta.spill), input) })
	per("spill.datanode_MB", "MB", func(r jobRecord) float64 { return float64(r.delta.dnSpill) / MB })
	per("spill.tracker_MB", "MB", func(r jobRecord) float64 { return float64(r.delta.ttSpill) / MB })
	per("spill.disk_retained_MB", "MB", func(r jobRecord) float64 { return float64(r.retained) / MB })
	per("netmr.control_plane_bytes", "bytes", func(r jobRecord) float64 { return float64(r.delta.dataPlane) })
	per("sched.useful_ratio", "ratio", func(r jobRecord) float64 {
		return ratio(float64(r.trace.tasks), float64(r.delta.granted))
	})
	per("sched.accel_share", "ratio", func(r jobRecord) float64 {
		return ratio(float64(r.delta.accel), float64(r.trace.tasks))
	})
	per("sched.imbalance", "ratio", func(r jobRecord) float64 { return imbalance(r.res) })
	per("topo.remote_read_share", "ratio", func(r jobRecord) float64 {
		reads := r.res.LocalReads + r.res.RackReads + r.res.RemoteReads
		return ratio(float64(r.res.RemoteReads), float64(reads))
	})
	m["flow.fetch_peak_ratio"] = metric{fetchPeak, "ratio"}
	m["trace.overhead"] = metric{overhead, "ratio"}
	m["host.steal_share"] = metric{ratio(float64(steal1-steal0), float64(total1-total0)), "ratio"}

	rungs, err := ladder(b.w.name, b.clus, dir, seed)
	if err != nil {
		return nil, fmt.Errorf("layer ladder: %w", err)
	}
	for name, v := range rungs {
		m[name] = metric{v, ladderUnits[name]}
	}
	return m, nil
}

// ladderUnits gives each ladder metric's unit.
var ladderUnits = map[string]string{
	"kernels.sort_MBps":         "MB/s",
	"kernels.ctr_MBps":          "MB/s",
	"kernels.pi_Msamples_per_s": "Msamples/s",
	"spill.put_MBps":            "MB/s",
	"spill.getrange_MBps":       "MB/s",
	"rpcnet.call_small_us":      "us",
	"rpcnet.call_64k_MBps":      "MB/s",
	"dfs.write_MBps":            "MB/s",
	"dfs.read_MBps":             "MB/s",
	"harness.verify_MBps":       "MB/s",
}

// imbalance is the max ÷ min of a job's winning task attempts per
// tracker, a tracker that won none counting as one.
func imbalance(r *engine.Result) float64 {
	lo, hi := math.MaxInt, 0
	for id := range r.Devices {
		n := max(r.TaskCounts[id], 1)
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi == 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}
