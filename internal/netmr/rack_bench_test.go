package netmr

import (
	"io"
	"testing"
	"time"

	"hetmr/internal/rpcnet"
)

// The topology benchmark behind the rack-aware scheduling claim: one
// data job on a two-rack, rack-spread-replicated cluster, with the
// trackers' block-fetch locality counters folded into per-op share
// metrics. The flat baseline case runs the same job with no topology
// so the artifact shows what the rack-local grant pass buys:
// node_local + rack_local shares approach 1 and the remote share
// approaches 0 on the racked cluster.
func BenchmarkRackLocality(b *testing.B) {
	data := make([]byte, 64*512)
	for i := range data {
		data[i] = byte(i * 7)
	}
	args, err := rpcnet.Marshal(AESArgs{
		Key: []byte("0123456789abcdef"), IV: make([]byte, 16), BlockBytes: 512,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		racks int
	}{
		{"flat", 0},
		{"racks=2", 2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var local, rack, remote int64
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				opts := []ClusterOption{WithReplication(2)}
				if tc.racks > 1 {
					opts = append(opts, WithRacks(tc.racks))
				}
				c, err := StartCluster(4, 2, 512, 5*time.Millisecond, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Client.WriteFile("/rack-bench", data, ""); err != nil {
					c.Shutdown()
					b.Fatal(err)
				}
				id, err := c.Client.Submit(JobSpec{
					Name: "rack-bench", Kernel: "aes-ctr", Input: "/rack-bench", Args: args,
				})
				if err == nil {
					_, err = c.Client.WaitOutput(id, 2*time.Minute, io.Discard)
				}
				if err != nil {
					c.Shutdown()
					b.Fatal(err)
				}
				l, rk, r := c.FetchTotals()
				local += l
				rack += rk
				remote += r
				c.Shutdown()
			}
			total := local + rack + remote
			if total == 0 {
				b.Fatal("no block fetches recorded")
			}
			b.ReportMetric(float64(local)/float64(total), "node_local_share")
			b.ReportMetric(float64(rack)/float64(total), "rack_local_share")
			b.ReportMetric(float64(remote)/float64(total), "remote_share")
		})
	}
}
