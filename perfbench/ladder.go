package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/netmr"
	"hetmr/internal/rpcnet"
	"hetmr/internal/spill"
)

// The layer ladder: each rung called directly at the payload sizes the
// workloads use, so the gap between rpcnet's wire speed and a job's
// speed can be attributed rung by rung.

// rungTime is how long each rung repeats its call.
const rungTime = 300 * time.Millisecond

// repeat calls fn until rungTime has passed (at least three times) and
// returns each call's duration.
func repeat(fn func() error) ([]float64, error) {
	var ds []float64
	for start := time.Now(); len(ds) < 3 || time.Since(start) < rungTime; {
		t := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t).Seconds())
	}
	return ds, nil
}

// rate converts the median call time over bytes per call into MB/s.
func rate(bytesPerCall int, ds []float64) float64 { return float64(bytesPerCall) / MB / median(ds) }

// ladder runs every rung and returns its metrics by name. clus is
// workload name's booted cluster (for the DFS rungs); dir holds spill
// files.
func ladder(name string, clus *netmr.Cluster, dir string, seed uint64) (map[string]float64, error) {
	out := map[string]float64{}

	// kernels: one 8 MB terasort reduce partition, one 1 MB encrypt
	// block, one pi_floor map task.
	part := kernels.GenerateSortRecords(seed, terasortPartBytes/kernels.SortRecordBytes)
	work := make([]byte, len(part))
	ds, err := repeat(func() error {
		copy(work, part)
		return kernels.SortRecords(work)
	})
	if err != nil {
		return nil, err
	}
	out["kernels.sort_MBps"] = rate(len(part), ds)

	c, err := kernels.NewCipher(part[:16])
	if err != nil {
		return nil, err
	}
	blk, ct := part[:encryptBlock], make([]byte, encryptBlock)
	ds, _ = repeat(func() error {
		kernels.CTRStreamFast(c, part[16:32], 0, ct, blk)
		return nil
	})
	out["kernels.ctr_MBps"] = rate(encryptBlock, ds)

	const taskSamples = piSamples / piTasks
	ds, _ = repeat(func() error {
		kernels.CountInsideFrom(seed, 0, taskSamples)
		return nil
	})
	out["kernels.pi_Msamples_per_s"] = taskSamples / 1e6 / median(ds)

	if err := spillRungs(out, dir, part); err != nil {
		return nil, err
	}
	if err := rpcRungs(out); err != nil {
		return nil, err
	}
	if err := dfsRungs(out, clus, part); err != nil {
		return nil, err
	}
	if err := verifyRung(out, name, seed, part); err != nil {
		return nil, err
	}
	return out, nil
}

// spillRungs mirrors a tracker's shuffle store: an 8 MiB watermark
// already holding one partition, so the next one spills on Put, then
// is read back in the 256 KB FetchPartition chunks reducers use.
func spillRungs(out map[string]float64, dir string, part []byte) error {
	const chunk = 256 << 10
	st := spill.NewStore(dir, spillMem, nil)
	defer st.Close()
	if err := st.Put("resident", part); err != nil {
		return err
	}
	var put, get []float64
	for i := 0; i < 3 || len(put) == 0 || sum(put)+sum(get) < rungTime.Seconds(); i++ {
		key := fmt.Sprintf("part-%d", i)
		t := time.Now()
		if err := st.Put(key, part); err != nil {
			return err
		}
		put = append(put, time.Since(t).Seconds())
		t = time.Now()
		for off := int64(0); off < int64(len(part)); off += chunk {
			if _, _, err := st.GetRange(key, off, chunk); err != nil {
				return err
			}
		}
		get = append(get, time.Since(t).Seconds())
		st.Delete(key)
	}
	out["spill.put_MBps"] = rate(len(part), put)
	out["spill.getrange_MBps"] = rate(len(part), get)
	return nil
}

// rpcRungs times rpcnet calls on a loopback echo server: a tiny
// heartbeat-sized call and a 64 KB block.
func rpcRungs(out map[string]float64) error {
	srv, err := rpcnet.NewServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.Handle("echo", func(body []byte) (any, error) {
		var blob []byte
		if err := rpcnet.Unmarshal(body, &blob); err != nil {
			return nil, err
		}
		return blob, nil
	})
	cl, err := rpcnet.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	call := func(arg []byte) func() error {
		return func() error {
			var echo []byte
			return cl.Call("echo", arg, &echo)
		}
	}
	ds, err := repeat(call([]byte("ping")))
	if err != nil {
		return err
	}
	out["rpcnet.call_small_us"] = median(ds) * 1e6
	blob := make([]byte, 64<<10)
	if ds, err = repeat(call(blob)); err != nil {
		return err
	}
	out["rpcnet.call_64k_MBps"] = rate(len(blob), ds)
	return nil
}

// dfsRungs writes and reads back a 16 MB file through the booted
// cluster's DFS client, at the workload's block size.
func dfsRungs(out map[string]float64, clus *netmr.Cluster, part []byte) error {
	data := bytes.Repeat(part[:4_000_000], 4)
	n := 0
	ds, err := repeat(func() error {
		n++
		_, err := clus.Client.WriteFrom(fmt.Sprintf("/perfbench/ladder-%d", n), bytes.NewReader(data), "")
		return err
	})
	if err != nil {
		return fmt.Errorf("dfs write: %w", err)
	}
	out["dfs.write_MBps"] = rate(len(data), ds)
	ds, err = repeat(func() error {
		got, err := clus.Client.ReadFile("/perfbench/ladder-1")
		if err == nil && !bytes.Equal(got, data) {
			err = fmt.Errorf("read back %d bytes differing from the %d written", len(got), len(data))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("dfs read: %w", err)
	}
	out["dfs.read_MBps"] = rate(len(data), ds)
	return nil
}

// verifyRung times the workload's own output check, which terasort
// and encrypt run inside each timed job as its Sink: the order and
// multiset check on 8 MB of sorted records, the SHA-256 of 8 MB of
// ciphertext, or the reference count for one Pi job (reckoned on its
// sample bytes).
func verifyRung(out map[string]float64, name string, seed uint64, part []byte) error {
	sorted := append([]byte(nil), part...)
	if err := kernels.SortRecords(sorted); err != nil {
		return err
	}
	var want recordSum
	want.addAll(sorted)
	feed := func(w io.Writer) {
		for off := 0; off < len(sorted); off += 256 << 10 {
			w.Write(sorted[off:min(off+256<<10, len(sorted))])
		}
	}
	check, size := func() error {
		c := &sortChecker{}
		feed(c)
		return c.verify(want, int64(len(sorted)))
	}, len(sorted)
	switch name {
	case "encrypt":
		check = func() error {
			feed(newDigestSink())
			return nil
		}
	case "pi_floor":
		check, size = func() error {
			piReference(seed)
			return nil
		}, piSamples*piSampleBytes
	}
	ds, err := repeat(check)
	if err != nil {
		return err
	}
	out["harness.verify_MBps"] = rate(size, ds)
	return nil
}
