package hdfs

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hetmr/internal/topo"
)

// layout renders every file's block hosts, primary first:
// "/a[n0,n1 n2,n3] /b[...]" — files sorted, blocks in file order.
func layout(t *testing.T, nn *NameNode) string {
	t.Helper()
	var files []string
	for _, name := range nn.List() {
		locs, err := nn.Locations(name)
		if err != nil {
			t.Fatal(err)
		}
		var blocks []string
		for _, l := range locs {
			blocks = append(blocks, strings.Join(l.Hosts, ","))
		}
		files = append(files, name+"["+strings.Join(blocks, " ")+"]")
	}
	return strings.Join(files, " ")
}

// rackedCluster registers n0..n(nodes-1) round-robin over racks.
func rackedCluster(t *testing.T, blockSize int64, repl, nodes, racks int) *NameNode {
	t.Helper()
	nn, err := NewNameNode(blockSize, repl)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nodes; i++ {
		if _, err := nn.RegisterDataNodeAt(fmt.Sprintf("n%d", i), topo.RackName(i%racks)); err != nil {
			t.Fatal(err)
		}
	}
	return nn
}

func write(t *testing.T, nn *NameNode, name string, size int, preferred string) {
	t.Helper()
	if err := nn.WriteFile(name, make([]byte, size), preferred); err != nil {
		t.Fatal(err)
	}
}

// TestRackSpreadPlacementGolden pins the NameNode's replica homes for
// writes, a dead-node repair and a decommission across 2 and 3 racks.
// Placement is deterministic, so any change to the rack-spread,
// least-loaded rule shows up here as a different layout.
func TestRackSpreadPlacementGolden(t *testing.T) {
	t.Run("3racks-repl3", func(t *testing.T) {
		nn := rackedCluster(t, 10, 3, 6, 3) // n0 n3: rack00, n1 n4: rack01, n2 n5: rack02
		write(t, nn, "/a", 30, "")
		write(t, nn, "/b", 25, "n4")
		write(t, nn, "/c", 7, "n1")
		if got, want := layout(t, nn),
			"/a[n0,n1,n2 n3,n4,n5 n0,n1,n2] /b[n4,n3,n5 n4,n0,n2 n4,n3,n5] /c[n1,n3,n5]"; got != want {
			t.Errorf("writes:\n got %s\nwant %s", got, want)
		}
	})
	t.Run("2racks-repl3", func(t *testing.T) {
		nn := rackedCluster(t, 10, 3, 4, 2) // n0 n2: rack00, n1 n3: rack01
		write(t, nn, "/a", 40, "")
		write(t, nn, "/b", 15, "n3")
		if got, want := layout(t, nn),
			"/a[n0,n1,n2 n3,n0,n1 n2,n3,n0 n1,n2,n3] /b[n3,n0,n1 n3,n2,n0]"; got != want {
			t.Errorf("writes:\n got %s\nwant %s", got, want)
		}
	})
	t.Run("2racks-repl2-kill", func(t *testing.T) {
		nn := rackedCluster(t, 10, 2, 5, 2) // n0 n2 n4: rack00, n1 n3: rack01
		write(t, nn, "/a", 20, "")
		write(t, nn, "/b", 6, "n2")
		write(t, nn, "/c", 4, "n2")
		write(t, nn, "/d", 8, "n3")
		if got, want := layout(t, nn),
			"/a[n0,n1 n2,n3] /b[n2,n1] /c[n2,n3] /d[n3,n4]"; got != want {
			t.Errorf("writes:\n got %s\nwant %s", got, want)
		}
		if err := nn.KillDataNode("n3"); err != nil {
			t.Fatal(err)
		}
		if got, want := layout(t, nn),
			"/a[n0,n1 n2,n1] /b[n2,n1] /c[n2,n1] /d[n4,n1]"; got != want {
			t.Errorf("after killing n3:\n got %s\nwant %s", got, want)
		}
	})
	t.Run("2racks-repl2-decommission-sole-copy", func(t *testing.T) {
		nn := rackedCluster(t, 10, 2, 2, 2) // n0: rack00, n1: rack01
		write(t, nn, "/a", 20, "")
		// With n1 dead no third node can take a copy: /a's blocks
		// are left with n0 as their sole home.
		if err := nn.KillDataNode("n1"); err != nil {
			t.Fatal(err)
		}
		for i, rack := range []string{topo.RackName(1), topo.RackName(0)} {
			if _, err := nn.RegisterDataNodeAt(fmt.Sprintf("n%d", i+2), rack); err != nil {
				t.Fatal(err)
			}
		}
		write(t, nn, "/b", 10, "n3")
		if got, want := layout(t, nn),
			"/a[n0 n0] /b[n3,n2]"; got != want {
			t.Errorf("before decommission:\n got %s\nwant %s", got, want)
		}
		if err := nn.DecommissionDataNode("n0"); err != nil {
			t.Fatal(err)
		}
		if got, want := layout(t, nn),
			"/a[n2,n3 n2,n3] /b[n3,n2]"; got != want {
			t.Errorf("after decommissioning n0:\n got %s\nwant %s", got, want)
		}
	})
	t.Run("2racks-repl1-decommission", func(t *testing.T) {
		nn := rackedCluster(t, 10, 1, 4, 2)
		write(t, nn, "/a", 10, "n1")
		write(t, nn, "/b", 20, "")
		if got, want := layout(t, nn),
			"/a[n1] /b[n0 n2]"; got != want {
			t.Errorf("writes:\n got %s\nwant %s", got, want)
		}
		if err := nn.DecommissionDataNode("n1"); err != nil {
			t.Fatal(err)
		}
		if got, want := layout(t, nn),
			"/a[n3] /b[n0 n2]"; got != want {
			t.Errorf("after decommissioning n1:\n got %s\nwant %s", got, want)
		}
	})
}

// A decommission that would leave a block with no home is refused up
// front, and the node keeps serving with its accounting intact.
func TestDecommissionLastNodeRefused(t *testing.T) {
	nn := rackedCluster(t, 10, 2, 2, 2)
	write(t, nn, "/a", 25, "")
	if err := nn.KillDataNode("n1"); err != nil {
		t.Fatal(err)
	}
	if err := nn.DecommissionDataNode("n0"); !errors.Is(err, ErrNoDataNodes) {
		t.Fatalf("decommissioning the last live node: %v, want ErrNoDataNodes", err)
	}
	if got := nn.DataNodes(); len(got) != 1 || got[0] != "n0" {
		t.Errorf("live nodes after refusal = %v, want [n0]", got)
	}
	if got := nn.TotalBytes(); got != 25 {
		t.Errorf("TotalBytes after refusal = %d, want 25", got)
	}
	if _, err := nn.ReadFile("/a"); err != nil {
		t.Errorf("read after refused decommission: %v", err)
	}
}
