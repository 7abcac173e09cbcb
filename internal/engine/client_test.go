package engine

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"hetmr/internal/netmr"
)

// The engine Client: Open once, submit many, Close — native on the
// net backend's job service, emulated (serialized) elsewhere.

func TestClientNetSubmitConcurrentTenants(t *testing.T) {
	c, err := Open("net", Config{Workers: 2, Quotas: map[string]Quota{
		"t1": {Weight: 1},
		"t2": {Weight: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	job := func(tenant string) *Job {
		return &Job{Kind: Pi, Samples: 200_000, Tasks: 8, Seed: 11, Tenant: tenant}
	}
	var handles []*JobHandle
	for _, tenant := range []string{"t1", "t2", "t1"} {
		h, err := c.Submit(job(tenant))
		if err != nil {
			t.Fatalf("submit as %s: %v", tenant, err)
		}
		handles = append(handles, h)
	}
	ref, err := c.Run(job("t2"))
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("handle %d: %v", i, err)
		}
		if res.Inside != ref.Inside || res.Total != ref.Total {
			t.Errorf("handle %d: %d/%d inside, want %d/%d (concurrent result diverged)",
				i, res.Inside, res.Total, ref.Inside, ref.Total)
		}
		// Wait is idempotent: a second collection returns the same result.
		again, err := h.Wait()
		if err != nil || again != res {
			t.Errorf("handle %d: second Wait = (%v, %v), want the first result back", i, again, err)
		}
	}
}

func TestClientNetKillAndQuota(t *testing.T) {
	// Slow every task so the victim is reliably mid-flight when killed.
	delays := []time.Duration{20 * time.Millisecond, 20 * time.Millisecond}
	c, err := Open("net", Config{
		Workers:     2,
		FaultDelays: delays,
		Quotas:      map[string]Quota{"capped": {MaxJobs: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h, err := c.Submit(&Job{Kind: Pi, Samples: 100_000, Tasks: 20, Tenant: "capped"})
	if err != nil {
		t.Fatal(err)
	}
	// The engine surfaces the runtime's typed admission rejection.
	if _, err := c.Submit(&Job{Kind: Pi, Samples: 1000, Tenant: "capped"}); !errors.Is(err, netmr.ErrQuotaExceeded) {
		t.Fatalf("submit at MaxJobs=1: error %v, want netmr.ErrQuotaExceeded", err)
	}
	if st, err := h.Status(); err != nil || st.Done {
		t.Fatalf("status before kill = (%+v, %v), want a live job", st, err)
	}
	if err := h.Kill(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(); err == nil {
		t.Error("killed job's Wait returned success, want killed error")
	}
	// The kill freed the tenant's job slot.
	if _, err := c.Submit(&Job{Kind: Pi, Samples: 1000, Tenant: "capped"}); err != nil {
		t.Fatalf("submit after kill: %v", err)
	}
}

// TestClientNetDropsStagedInput: a data job's DFS staging file is gone
// once the job is terminal — done, killed or rejected at admission —
// and the DataNodes drop its blocks.
func TestClientNetDropsStagedInput(t *testing.T) {
	// Slow every task so the victim is reliably mid-flight when killed.
	delays := []time.Duration{20 * time.Millisecond, 20 * time.Millisecond}
	c, err := Open("net", Config{
		Workers:     2,
		BlockSize:   8_000,
		FaultDelays: delays,
		Quotas:      map[string]Quota{"capped": {MaxJobs: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clus := c.Runner().(*netRunner).clus
	// The conformance jobs collect their results whole; the streamed
	// encrypt drains its output after the job ends.
	streamed := &Job{Kind: Encrypt, Input: corpus(), Key: []byte("conformance-key!"),
		IV: []byte("conformance-iv!!"), Sink: io.Discard}
	for _, job := range append(conformanceJobs(), streamed) {
		if _, err := c.Run(job); err != nil {
			t.Fatalf("%s: %v", job.Kind, err)
		}
	}
	victim, err := c.Submit(&Job{Kind: Wordcount, Input: corpus(), Tenant: "capped"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(&Job{Kind: Wordcount, Input: corpus(), Tenant: "capped"}); !errors.Is(err, netmr.ErrQuotaExceeded) {
		t.Fatalf("submit at MaxJobs=1: error %v, want netmr.ErrQuotaExceeded", err)
	}
	if err := victim.Kill(); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Wait(); err == nil {
		t.Fatal("killed job's Wait returned success, want killed error")
	}
	files, err := clus.Client.ListFiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasPrefix(f, "/engine/") {
			t.Errorf("staged input %s outlived its job", f)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, dn := range clus.DNs {
		for dn.BlockCount() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("datanode %s still holds %d blocks", dn.Addr(), dn.BlockCount())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestClientFallbackSerializedSubmit(t *testing.T) {
	c, err := Open("sim", Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h1, err := c.Submit(&Job{Kind: Pi, Samples: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := c.Submit(&Job{Kind: Pi, Samples: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := h1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Inside != r2.Inside || r1.Total != r2.Total {
		t.Errorf("identical jobs diverged: %d/%d vs %d/%d", r1.Inside, r1.Total, r2.Inside, r2.Total)
	}
	// No job service behind sim: lifecycle extras refuse honestly.
	if err := h1.Kill(); !errors.Is(err, ErrUnsupported) {
		t.Errorf("fallback Kill error %v, want ErrUnsupported", err)
	}
	if _, err := h1.Status(); !errors.Is(err, ErrUnsupported) {
		t.Errorf("fallback Status error %v, want ErrUnsupported", err)
	}
}
