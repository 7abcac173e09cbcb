package netmr

import (
	"slices"
	"testing"
	"time"

	"hetmr/internal/rpcnet"
)

func TestDFSDeleteAndList(t *testing.T) {
	c := startTestCluster(t, 2, 512)
	for _, f := range []string{"/b", "/a", "/c"} {
		if err := c.Client.WriteFile(f, make([]byte, 1000), ""); err != nil {
			t.Fatal(err)
		}
	}
	files, err := c.Client.ListFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 3 || files[0] != "/a" || files[2] != "/c" {
		t.Errorf("List = %v, want sorted [/a /b /c]", files)
	}
	if err := c.Client.Delete("/b"); err != nil {
		t.Fatal(err)
	}
	files, _ = c.Client.ListFiles()
	if len(files) != 2 {
		t.Errorf("after delete: %v", files)
	}
	if err := c.Client.Delete("/b"); err == nil {
		t.Error("double delete should fail")
	}
	// Deleted file is gone from lookups.
	if _, err := c.Client.ReadFile("/b"); err == nil {
		t.Error("read of deleted file should fail")
	}
	// Deleting the rest frees every replica: each DataNode drops its
	// blocks when its next heartbeat returns the invalidations.
	if c.DNs[0].BlockCount()+c.DNs[1].BlockCount() == 0 {
		t.Fatal("no blocks stored before the deletes")
	}
	for _, f := range []string{"/a", "/c"} {
		if err := c.Client.Delete(f); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*c.heartbeat, func() bool {
		for _, dn := range c.DNs {
			if dn.BlockCount() != 0 {
				return false
			}
		}
		return true
	}, "datanodes still hold blocks of deleted files")
	nodes, err := c.Client.ListDataNodes()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if n.Blocks != 0 {
			t.Errorf("datanode %s still counted with %d blocks", n.Addr, n.Blocks)
		}
	}
}

// TestRepairOfDeletedBlockInvalidatesCopy: a re-replication whose
// block was deleted while the copy was in flight must not strand the
// copy on its target.
func TestRepairOfDeletedBlockInvalidatesCopy(t *testing.T) {
	c := startTestCluster(t, 3, 512)
	if err := c.Client.WriteFile("/x", make([]byte, 500), ""); err != nil {
		t.Fatal(err)
	}
	nnc, err := rpcnet.Dial(c.NN.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nnc.Close()
	var lookup LookupReply
	if err := nnc.Call("Lookup", LookupArgs{File: "/x"}, &lookup); err != nil {
		t.Fatal(err)
	}
	blk := lookup.Blocks[0]
	var dst *DataNode
	for _, dn := range c.DNs {
		if !slices.Contains(addrsOf(blk), dn.Addr()) {
			dst = dn
		}
	}
	if dst == nil {
		t.Fatalf("block %d on every datanode", blk.ID)
	}
	// The op names a file the namespace no longer holds, as when the
	// delete lands between the planned copy and its commit.
	if c.NN.replicate(repairOp{file: "/deleted", id: blk.ID, src: blk.Replicas[0].Addr, dst: Replica{Addr: dst.Addr()}}) {
		t.Fatal("repair of a deleted file's block committed")
	}
	waitFor(t, 10*c.heartbeat, func() bool { return dst.BlockCount() == 0 },
		"pushed copy of a deleted block survived on its target")
}

func TestComputeJobDefaultTaskCount(t *testing.T) {
	c := startTestCluster(t, 1, 512)
	// NumTasks omitted: defaults to one task.
	result, err := c.Client.SubmitAndWait(JobSpec{
		Name: "one", Kernel: "pi", Samples: 1000,
	}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var pi PiResult
	if err := rpcnet.Unmarshal(result, &pi); err != nil {
		t.Fatal(err)
	}
	if pi.Total != 1000 {
		t.Errorf("total = %d", pi.Total)
	}
}

func TestDataNodeUnknownBlock(t *testing.T) {
	c := startTestCluster(t, 1, 512)
	dnc, err := rpcnet.Dial(c.DNs[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dnc.Close()
	var get GetReply
	if err := dnc.Call("Get", GetArgs{ID: 9999}, &get); err == nil {
		t.Error("get of unknown block should fail")
	}
}

func TestRegisterIdempotent(t *testing.T) {
	c := startTestCluster(t, 1, 512)
	nnc, err := rpcnet.Dial(c.NN.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nnc.Close()
	// Re-registering the same DataNode address must not duplicate it.
	addr := c.DNs[0].Addr()
	for i := 0; i < 2; i++ {
		if err := nnc.Call("Register", RegisterArgs{Addr: addr}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Writes still place on the single datanode without error.
	if err := c.Client.WriteFile("/x", make([]byte, 100), ""); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateWithoutDataNodes(t *testing.T) {
	nn, err := StartNameNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer nn.Close()
	nnc, err := rpcnet.Dial(nn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nnc.Close()
	var alloc AllocateReply
	if err := nnc.Call("Allocate", AllocateArgs{File: "/f", Size: 10}, &alloc); err == nil {
		t.Error("allocation with no datanodes should fail")
	}
}

// A Confirm that names none of a block's replicas is refused and
// leaves the replica list as placed: pruning to it would leave the
// block with no home.
func TestConfirmOfForeignReplicasRefused(t *testing.T) {
	c := startTestCluster(t, 2, 512)
	if err := c.Client.WriteFile("/x", make([]byte, 500), ""); err != nil {
		t.Fatal(err)
	}
	nnc, err := rpcnet.Dial(c.NN.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nnc.Close()
	lookup := func() BlockInfo {
		var reply LookupReply
		if err := nnc.Call("Lookup", LookupArgs{File: "/x"}, &reply); err != nil {
			t.Fatal(err)
		}
		return reply.Blocks[0]
	}
	before := lookup()
	err = nnc.Call("Confirm", ConfirmArgs{File: "/x", BlockID: before.ID, Replicas: []string{"127.0.0.1:1"}}, nil)
	if err == nil {
		t.Fatal("Confirm naming no replica of the block succeeded")
	}
	if after := lookup(); !slices.Equal(after.Replicas, before.Replicas) {
		t.Errorf("refused Confirm changed the replicas: %v -> %v", before.Replicas, after.Replicas)
	}
}
