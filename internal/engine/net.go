package engine

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/netmr"
	"hetmr/internal/rpcnet"
)

// netRunner executes jobs on the socket-backed distributed runtime
// (internal/netmr): NameNode, DataNodes, JobTracker and TaskTrackers
// as TCP daemons on loopback, block data crossing the network stack.
// An AccelFraction of the trackers carry a per-node Cell accelerator;
// cell-mapper jobs offload their pi, aes-ctr and wordcount map tasks
// to it with a bit-identical host fallback on the plain trackers.
type netRunner struct {
	cfg  Config
	clus *netmr.Cluster

	// mu guards seq: Run may be called concurrently, and two jobs
	// colliding on one DFS staging path would corrupt each other's
	// input.
	mu  sync.Mutex
	seq int
}

func init() {
	Register("net", func(cfg Config) (Runner, error) {
		if cfg.Mapper == "empty" {
			return nil, fmt.Errorf("%w: mapper \"empty\" models pure runtime overhead and only exists on the sim backend", ErrUnsupported)
		}
		if cfg.Timeline {
			return nil, fmt.Errorf("%w: Timeline is rendered from the simulated JobTracker's task log and only exists on the sim backend", ErrUnsupported)
		}
		kinds, err := netDeviceKinds(cfg)
		if err != nil {
			return nil, err
		}
		opts := []netmr.ClusterOption{
			netmr.WithSpeculation(cfg.Speculative),
			netmr.WithMaxAttempts(cfg.MaxAttempts),
			netmr.WithTrackerDelays(cfg.FaultDelays),
			netmr.WithDeviceKinds(kinds),
		}
		if len(cfg.Quotas) > 0 {
			quotas := make(map[string]netmr.Quota, len(cfg.Quotas))
			for tenant, q := range cfg.Quotas {
				quotas[tenant] = netmr.Quota{
					Weight:      q.Weight,
					MaxJobs:     q.MaxJobs,
					MaxTrackers: q.MaxTrackers,
					SpillBytes:  q.SpillBytes,
					MaxQueued:   q.MaxQueued,
				}
			}
			opts = append(opts, netmr.WithQuotas(quotas))
		}
		if cfg.Racks >= 2 {
			opts = append(opts, netmr.WithRacks(cfg.Racks))
		}
		if cfg.SpillMemBytes != 0 {
			opts = append(opts, netmr.WithSpill(cfg.SpillDir, cfg.spillMem(), cfg.spillCodec()))
		}
		// Flow control: with a positive spill watermark, grant ingest
		// and shuffle-fetch credits against it, so the network side of
		// the data plane is bounded the same way the stores are.
		if cfg.SpillMemBytes > 0 {
			opts = append(opts,
				netmr.WithIngestWindow(cfg.SpillMemBytes),
				netmr.WithFetchWindow(cfg.SpillMemBytes))
		}
		if cfg.Codec != "" {
			opts = append(opts, netmr.WithWireCodec(cfg.Codec))
		}
		clus, err := netmr.StartCluster(cfg.Workers, cfg.MappersPerNode,
			cfg.BlockSize, 20*time.Millisecond, opts...)
		if err != nil {
			return nil, err
		}
		return &netRunner{cfg: cfg, clus: clus}, nil
	})
}

// netDeviceKinds derives the cluster's per-tracker device profiles:
// the first AccelFraction of workers carry a device, the same layout
// the live and sim backends use, so one Config builds the same
// hardware everywhere. SpeedHints never override the profile; they are
// cross-checked against it — a hint above the host baseline on a
// worker without a device claims accelerated-class throughput the
// profile cannot provide and is an error, never a silently dropped
// knob. (The converse is fine: a device-equipped worker may carry a
// low hint — a straggling accelerated node — and
// HeterogeneousSpeedHints with the matching fraction agrees with the
// profile by construction.)
func netDeviceKinds(cfg Config) ([]string, error) {
	kinds := make([]string, cfg.Workers)
	accelerated := cfg.acceleratedNodes(cfg.Workers)
	for i := range kinds {
		if i < accelerated {
			kinds[i] = netmr.DeviceCell
		} else {
			kinds[i] = netmr.DeviceHost
		}
	}
	for i, h := range cfg.SpeedHints {
		if h > 1 && kinds[i] != netmr.DeviceCell {
			return nil, fmt.Errorf("engine: speed hint %g for worker %d exceeds the host baseline but the %d/%d accelerated device profile gives it no device — on net, hints must agree with AccelFraction (use HeterogeneousSpeedHints with the same fraction)",
				h, i, accelerated, cfg.Workers)
		}
	}
	return kinds, nil
}

// Backend implements Runner.
func (r *netRunner) Backend() string { return "net" }

// Close implements Runner: stops every daemon.
func (r *netRunner) Close() error {
	r.clus.Shutdown()
	return nil
}

// Cluster exposes the running deployment (daemon addresses, tracker
// devices etc.) for callers that need backend-specific detail.
func (r *netRunner) Cluster() *netmr.Cluster { return r.clus }

// reducers resolves the distributed-shuffle reduce-task count for data
// jobs whose kernel supports partitioned output: the configured
// partition count, defaulting to one reduce task per worker.
func (r *netRunner) reducers() int {
	if r.cfg.Reducers > 0 {
		return r.cfg.Reducers
	}
	if r.cfg.Workers > 0 {
		return r.cfg.Workers
	}
	return 1
}

// waitAndStatus blocks until job id completes under the configured
// JobTimeout and fetches the scheduler's per-tracker completion counts
// and device profile alongside the reduced result.
func (r *netRunner) waitAndStatus(id int64) (raw []byte, st netmr.StatusReply, err error) {
	raw, err = r.clus.Client.Wait(id, r.cfg.JobTimeout)
	if err != nil {
		return nil, st, err
	}
	st, err = r.clus.Client.Status(id)
	if err != nil {
		return nil, st, err
	}
	return raw, st, nil
}

// stageInput streams src (the job's dataset, possibly wrapped in a
// sampling pass) into the distributed FS under the client's ingest
// window. A failed stage deletes whatever blocks it already wrote.
func (r *netRunner) stageInput(job *Job, src io.Reader) (string, error) {
	r.mu.Lock()
	r.seq++
	name := fmt.Sprintf("/engine/%s-%d", job.title(), r.seq)
	r.mu.Unlock()
	if _, err := r.clus.Client.WriteFrom(name, src, ""); err != nil {
		_ = r.clus.Client.Delete(name) // best effort: the write error is the one to report
		return "", err
	}
	return name, nil
}

// buildSpec validates and expands an engine job into its netmr job
// spec, staging the dataset into the DFS for data kinds. A Sort with
// more than one reducer reservoir-samples record keys on the staging
// stream and submits the split keys its range-routed shuffle needs.
func (r *netRunner) buildSpec(job *Job) (netmr.JobSpec, error) {
	spec := netmr.JobSpec{
		Name:   job.title(),
		Mapper: r.cfg.Mapper,
		Tenant: job.Tenant,
	}
	switch job.Kind {
	case Wordcount, Sort:
		src := job.inputReader()
		reducers := r.reducers()
		var sampler *kernels.RecordKeySampler
		if job.Kind == Sort && reducers > 1 {
			// The sampling pass rides the staging stream: ingest is read
			// exactly once, and the reservoir costs O(sample) memory.
			seed := job.Seed
			if seed == 0 {
				seed = DefaultSeed
			}
			sampler = kernels.NewRecordKeySampler(src, kernels.SplitSampleCap(reducers), uint64(seed))
			src = sampler
		}
		input, err := r.stageInput(job, src)
		if err != nil {
			return spec, err
		}
		spec.Kernel = string(job.Kind)
		spec.Input = input
		spec.NumReducers = reducers
		if sampler != nil {
			spec.SplitKeys = sampler.SplitKeys(reducers)
		}
	case Encrypt:
		input, err := r.stageInput(job, job.inputReader())
		if err != nil {
			return spec, err
		}
		args, err := rpcnet.Marshal(netmr.AESArgs{
			Key: job.Key, IV: job.iv(), BlockBytes: r.cfg.BlockSize,
		})
		if err != nil {
			return spec, err
		}
		spec.Kernel = "aes-ctr"
		spec.Input = input
		spec.Args = args
	case Pi:
		seed := job.Seed
		if seed == 0 {
			seed = DefaultSeed
		}
		spec.Kernel = "pi"
		spec.Samples = job.Samples
		spec.NumTasks = normalizeTasks(job.Tasks, r.cfg.Workers)
		spec.Seed = seed
	default:
		return spec, fmt.Errorf("%w: %s on net", ErrUnsupported, job.Kind)
	}
	return spec, nil
}

// netJob is one job submitted to the running cluster and not yet
// collected.
type netJob struct {
	r       *netRunner
	job     *Job
	id      int64
	input   string // staged DFS input ("" for pi, and once deleted)
	started time.Time
	// Fetch-locality counter snapshot at submission; wait() reports
	// the delta as the job's read-locality split.
	local0, rack0, remote0 int64
}

// start validates, stages and submits one job, returning the handle to
// collect it with.
func (r *netRunner) start(job *Job) (*netJob, error) {
	if err := r.cfg.validateJob(job); err != nil {
		return nil, err
	}
	spec, err := r.buildSpec(job)
	if err != nil {
		return nil, err
	}
	l0, rk0, rm0 := r.clus.FetchTotals()
	id, err := r.clus.Client.Submit(spec)
	if err != nil {
		if spec.Input != "" {
			_ = r.clus.Client.Delete(spec.Input) // best effort: the submit error is the one to report
		}
		return nil, err
	}
	return &netJob{r: r, job: job, id: id, input: spec.Input,
		started: time.Now(), local0: l0, rack0: rk0, remote0: rm0}, nil
}

// wait collects the job and deletes its staged input once the job is
// terminal — done, failed or killed — so its blocks do not outlive it.
// A Sort or Encrypt job streams its output from the trackers and is
// terminal before that output drains, so its input goes first and the
// DataNodes free the blocks during the drain. A job still running when
// the wait gives up (it timed out) keeps its input.
func (nj *netJob) wait() (*Result, error) {
	if k := nj.job.Kind; k == Sort || k == Encrypt {
		if _, err := nj.r.clus.Client.Wait(nj.id, nj.r.cfg.JobTimeout); err != nil {
			nj.dropInput(err)
			return nil, err
		}
		nj.dropInput(nil)
	}
	res, err := nj.collect()
	nj.dropInput(err)
	return res, err
}

// dropInput deletes the job's staged input, once: straight away after
// a clean wait, and after a failed one only if the JobTracker reports
// the job terminal.
func (nj *netJob) dropInput(err error) {
	if nj.input == "" {
		return
	}
	c := nj.r.clus.Client
	if err != nil {
		st, serr := c.Status(nj.id)
		if serr != nil || (!st.Done && st.Err == "") {
			return
		}
	}
	// Best effort: a failed delete leaks the blocks, never a result.
	_ = c.Delete(nj.input)
	nj.input = ""
}

// collect blocks until the job completes and decodes its result by
// kind.
func (nj *netJob) collect() (*Result, error) {
	r, job := nj.r, nj.job
	res := &Result{Backend: r.Backend()}
	switch job.Kind {
	case Wordcount:
		raw, st, err := r.waitAndStatus(nj.id)
		if err != nil {
			return nil, err
		}
		var counts map[string]int64
		if err := rpcnet.Unmarshal(raw, &counts); err != nil {
			return nil, err
		}
		res.Pairs = pairsFromCounts(counts)
		res.TaskCounts, res.Devices = st.Counts, st.Devices
	case Sort, Encrypt:
		// The output is the trackers' raw pieces in task order — sort's
		// range-routed partitions concatenate in key order, aes-ctr's
		// blocks in file order — streamed one bounded chunk at a time
		// into the Sink, or into Result.Bytes without one. Neither the
		// JobTracker nor a final merge ever holds the whole output.
		var buf bytes.Buffer
		sink := job.Sink
		if sink == nil {
			sink = &buf
		}
		n, err := r.clus.Client.WaitOutput(nj.id, r.cfg.JobTimeout, sink)
		if err != nil {
			return nil, err
		}
		st, err := r.clus.Client.Status(nj.id)
		if err != nil {
			return nil, err
		}
		if job.Sink != nil {
			res.OutputBytes = n
		} else {
			res.Bytes = buf.Bytes()
		}
		res.TaskCounts, res.Devices = st.Counts, st.Devices
	case Pi:
		raw, st, err := r.waitAndStatus(nj.id)
		if err != nil {
			return nil, err
		}
		var pi netmr.PiResult
		if err := rpcnet.Unmarshal(raw, &pi); err != nil {
			return nil, err
		}
		res.Pi, res.Inside, res.Total = pi.Pi, pi.Inside, pi.Total
		res.TaskCounts, res.Devices = st.Counts, st.Devices
	}
	l1, rk1, rm1 := r.clus.FetchTotals()
	res.LocalReads = l1 - nj.local0
	res.RackReads = rk1 - nj.rack0
	res.RemoteReads = rm1 - nj.remote0
	res.Elapsed = time.Since(nj.started)
	return res, nil
}

// Run implements Runner as submit-then-wait over the job service, so
// the one-shot path and Client.Submit exercise the same machinery. It
// is safe for concurrent use: each call stages its input under a
// distinct DFS path, and the netmr client multiplexes concurrent
// calls over its pooled connections.
func (r *netRunner) Run(job *Job) (*Result, error) {
	nj, err := r.start(job)
	if err != nil {
		return nil, err
	}
	return nj.wait()
}

// Submit implements the Client's native submission hook: the job runs
// on the cluster while the caller holds the handle, Kill reaches the
// JobTracker's Kill RPC, and Status polls live progress.
func (r *netRunner) Submit(job *Job) (*JobHandle, error) {
	nj, err := r.start(job)
	if err != nil {
		return nil, err
	}
	return newJobHandle(
		nj.wait,
		func() error { return r.clus.Client.Kill(nj.id, job.Tenant) },
		func() (JobStatus, error) {
			st, err := r.clus.Client.Status(nj.id)
			if err != nil {
				return JobStatus{}, err
			}
			return JobStatus{
				Done:      st.Done,
				Completed: st.Completed,
				Total:     st.Total,
				Err:       st.Err,
			}, nil
		},
	), nil
}
