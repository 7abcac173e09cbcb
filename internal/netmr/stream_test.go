package netmr

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"hetmr/internal/kernels"
	"hetmr/internal/rpcnet"
	"hetmr/internal/spill"
)

func streamCorpus(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*131 + i>>10)
	}
	return data
}

// TestWriteFromStreams pins the streaming ingest path: WriteFrom from
// an io.Reader must lay out the same blocks WriteFile does.
func TestWriteFromStreams(t *testing.T) {
	c, err := StartCluster(2, 2, 1_000, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	data := streamCorpus(10_500) // 11 blocks, last partial
	n, err := c.Client.WriteFrom("/streamed", bytes.NewReader(data), "")
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) {
		t.Fatalf("WriteFrom wrote %d bytes, want %d", n, len(data))
	}
	got, err := c.Client.ReadFile("/streamed")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("WriteFrom round-trip differs")
	}
}

// submitOutput submits a streamed job (sort, aes-ctr) and drains its
// output into memory through WaitOutput.
func submitOutput(tb testing.TB, c *Client, spec JobSpec, timeout time.Duration) []byte {
	tb.Helper()
	id, err := c.Submit(spec)
	if err != nil {
		tb.Fatal(err)
	}
	var out bytes.Buffer
	n, err := c.WaitOutput(id, timeout, &out)
	if err != nil {
		tb.Fatal(err)
	}
	if n != int64(out.Len()) {
		tb.Fatalf("WaitOutput reported %d bytes, wrote %d", n, out.Len())
	}
	return out.Bytes()
}

// TestStreamOutputEncrypt streams an AES job's ciphertext and checks
// (a) it is bit-identical to a local CTR pass, (b) no output byte rode
// the JobTracker's heartbeat channel, and (c) the stores free the
// pieces after the client's release.
func TestStreamOutputEncrypt(t *testing.T) {
	const blockSize = 1_000
	c, err := StartCluster(3, 2, blockSize, 10*time.Millisecond,
		WithSpill(t.TempDir(), 2_000, spill.Flate()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	data := streamCorpus(20_000)
	if err := c.Client.WriteFile("/plain", data, ""); err != nil {
		t.Fatal(err)
	}
	key, iv := []byte("stream-test-key!"), make([]byte, 16)
	args, err := rpcnet.Marshal(AESArgs{Key: key, IV: iv, BlockBytes: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	cip, err := kernels.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(data))
	kernels.CTRStreamFast(cip, iv, 0, want, data)

	got := submitOutput(t, c.Client, JobSpec{
		Name: "enc-stream", Kernel: "aes-ctr", Input: "/plain", Args: args,
	}, 30*time.Second)
	if !bytes.Equal(got, want) {
		t.Fatal("streamed ciphertext differs from the local CTR reference")
	}
	if moved := c.JT.DataPlaneBytes(); moved != 0 {
		t.Fatalf("streamed run moved %d output bytes over the heartbeat channel, want 0", moved)
	}
	// The release negotiated over heartbeats frees every store.
	deadline := time.Now().Add(5 * time.Second)
	for {
		held := 0
		for _, tt := range c.TTs {
			ids, _ := tt.store.held()
			held += len(ids)
		}
		if held == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d stores still hold streamed outputs after release", held)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamOutputSortShufflePath streams a distributed-shuffle sort's
// reduce outputs under a SpillAll watermark — every shuffle partition
// and streamed piece is served from disk — and checks the concatenated
// partitions match a local sort bit for bit.
func TestStreamOutputSortShufflePath(t *testing.T) {
	c, err := StartCluster(3, 2, 1_000, 10*time.Millisecond,
		WithSpill(t.TempDir(), 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	data := sortableRecords(t, 200) // 20 KB
	if err := c.Client.WriteFile("/records", data, ""); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), data...)
	if err := kernels.SortRecords(want); err != nil {
		t.Fatal(err)
	}
	got := submitOutput(t, c.Client, JobSpec{
		Name: "sort-stream", Kernel: "sort", Input: "/records", NumReducers: 3,
		SplitKeys: splitKeysFor(t, data, 3),
	}, 30*time.Second)
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed sort (%d bytes) differs from the local sort (%d bytes)", len(got), len(want))
	}
	spilledAnywhere := false
	for _, tt := range c.TTs {
		if tt.SpilledBytes() > 0 {
			spilledAnywhere = true
		}
	}
	if !spilledAnywhere {
		t.Fatal("SpillAll watermark but no tracker spilled shuffle payloads")
	}
}

// sortableRecords builds n 100-byte records.
func sortableRecords(t *testing.T, n int) []byte {
	t.Helper()
	data := streamCorpus(n * 100)
	return data
}

// TestDataNodeSpillServesBlocks pins the DataNode's disk-backed path:
// blocks spilled under the watermark still serve reads and jobs.
func TestDataNodeSpillServesBlocks(t *testing.T) {
	c, err := StartCluster(2, 2, 1_000, 10*time.Millisecond,
		WithSpill(t.TempDir(), 0, spill.Flate()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	data := streamCorpus(8_000)
	if err := c.Client.WriteFile("/spilled", data, ""); err != nil {
		t.Fatal(err)
	}
	spilled := int64(0)
	for _, dn := range c.DNs {
		spilled += dn.SpilledBytes()
	}
	if spilled == 0 {
		t.Fatal("SpillAll watermark but no DataNode spilled blocks")
	}
	got, err := c.Client.ReadFile("/spilled")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("spilled blocks did not read back identically")
	}
}

// TestWaitOutputRejectsInlineJob pins the misuse path: WaitOutput on a
// job whose kernel reduces at the JobTracker (wordcount) errors instead
// of hanging or returning nothing.
func TestWaitOutputRejectsInlineJob(t *testing.T) {
	c, err := StartCluster(2, 2, 1_000, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Client.WriteFile("/in", []byte("a b a c"), ""); err != nil {
		t.Fatal(err)
	}
	id, err := c.Client.Submit(JobSpec{Name: "wc", Kernel: "wordcount", Input: "/in"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Client.WaitOutput(id, 30*time.Second, io.Discard); err == nil {
		t.Fatal("WaitOutput on an inline job succeeded")
	}
}

// TestSubmitRejectsWrongOutputShapes pins the Submit-side shape check:
// a JobSpec arrives from outside the program, and each spec whose
// output would be wrong or missing is refused with an error before the
// job exists — never accepted to hang or to stream unordered bytes.
func TestSubmitRejectsWrongOutputShapes(t *testing.T) {
	c, err := StartCluster(1, 1, 1_000, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Client.WriteFile("/words", []byte("a b a"), ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Client.WriteFile("/records", sortableRecords(t, 10), ""); err != nil {
		t.Fatal(err)
	}
	args, err := rpcnet.Marshal(AESArgs{Key: []byte("stream-test-key!"), IV: make([]byte, 16), BlockBytes: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec JobSpec
		want string
	}{
		// sort has no Map: with no reducers nothing would partition.
		{JobSpec{Name: "sort-no-reducers", Kernel: "sort", Input: "/records"},
			"runs only on the shuffle path"},
		// More than one range needs exactly NumReducers-1 split keys,
		// or the streamed partitions concatenate out of key order
		// (a wrong non-zero count: TestSubmitRejectsBadSplitKeys).
		{JobSpec{Name: "sort-no-keys", Kernel: "sort", Input: "/records", NumReducers: 3},
			"0 split keys for 3 reducers"},
		// wordcount hashes words to reducers; split keys mean nothing.
		{JobSpec{Name: "wc-keys", Kernel: "wordcount", Input: "/words", NumReducers: 2,
			SplitKeys: [][]byte{{'m'}}}, "does not route by split keys"},
		// A streamed kernel with no input has no pieces to stream.
		{JobSpec{Name: "enc-no-input", Kernel: "aes-ctr", Args: args, Samples: 1000},
			"Input is empty"},
	} {
		_, err := c.Client.Submit(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Submit(%s) = %v, want an error containing %q", tc.spec.Name, err, tc.want)
		}
	}
	if st := c.JT.TenantStats()[DefaultTenant]; st.ActiveJobs != 0 {
		t.Errorf("rejected specs left jobs behind: %+v", st)
	}
}
