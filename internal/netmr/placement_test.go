package netmr

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hetmr/internal/rpcnet"
)

// TestRackSpreadPlacementGolden pins the NameNode's replica homes on a
// two-rack cluster — writes with and without a preferred writer, the
// repair after a DataNode death, and a decommission — as worker
// indices (w0 w2 w4 on rack00, w1 w3 on rack01). Placement is
// deterministic, so any change to the rack-spread, least-loaded rule
// shows up here as a different layout.
func TestRackSpreadPlacementGolden(t *testing.T) {
	const blockSize = 64
	c, err := StartCluster(5, 1, blockSize, 20*time.Millisecond, WithRacks(2), WithReplication(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	worker := make(map[string]string, len(c.DNs))
	for i, dn := range c.DNs {
		worker[dn.Addr()] = fmt.Sprintf("w%d", i)
	}
	nnc, err := rpcnet.Dial(c.NN.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nnc.Close()
	files := []string{"/a", "/b", "/c"}
	// layout renders each file's replica homes, primary first:
	// "/a[w0,w1 w2,w3] /b[...]".
	layout := func() string {
		var out []string
		for _, f := range files {
			var lookup LookupReply
			if err := nnc.Call("Lookup", LookupArgs{File: f}, &lookup); err != nil {
				t.Fatal(err)
			}
			var blocks []string
			for _, blk := range lookup.Blocks {
				var homes []string
				for _, addr := range addrsOf(blk) {
					homes = append(homes, worker[addr])
				}
				blocks = append(blocks, strings.Join(homes, ","))
			}
			out = append(out, f+"["+strings.Join(blocks, " ")+"]")
		}
		return strings.Join(out, " ")
	}

	for _, w := range []struct {
		name      string
		blocks    int
		preferred string
	}{
		{"/a", 6, ""},
		{"/b", 3, c.DNs[2].Addr()},
		{"/c", 2, c.DNs[4].Addr()},
	} {
		if err := c.Client.WriteFile(w.name, make([]byte, w.blocks*blockSize), w.preferred); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := layout(),
		"/a[w0,w1 w2,w3 w4,w1 w0,w3 w2,w1 w4,w3] /b[w2,w1 w2,w3 w2,w1] /c[w4,w3 w4,w1]"; got != want {
		t.Errorf("writes:\n got %s\nwant %s", got, want)
	}

	// w1 dies: the liveness sweep's steps, run inline so the repair
	// pass is deterministic.
	dead := c.DNs[1].Addr()
	c.DNs[1].Close()
	c.NN.mu.Lock()
	c.NN.nodes[dead].dead = true
	c.NN.pruneUnservedLocked()
	c.NN.mu.Unlock()
	c.NN.Repair()
	if got, want := layout(),
		"/a[w0,w3 w2,w3 w4,w3 w0,w3 w2,w3 w4,w3] /b[w2,w3 w2,w3 w2,w3] /c[w4,w3 w4,w3]"; got != want {
		t.Errorf("after w1 died:\n got %s\nwant %s", got, want)
	}

	if err := c.NN.DecommissionDataNode(c.DNs[3].Addr()); err != nil {
		t.Fatal(err)
	}
	if got, want := layout(),
		"/a[w0,w4 w2,w0 w4,w0 w0,w4 w2,w0 w4,w0] /b[w2,w0 w2,w0 w2,w0] /c[w4,w0 w4,w0]"; got != want {
		t.Errorf("after decommissioning w3:\n got %s\nwant %s", got, want)
	}
}
