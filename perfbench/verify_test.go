package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hetmr/internal/engine"
	"hetmr/internal/kernels"
)

// feedChunks writes data to w in odd-sized pieces, so records straddle
// Write boundaries.
func feedChunks(w io.Writer, data []byte) {
	for off := 0; off < len(data); off += 337 {
		w.Write(data[off:min(off+337, len(data))])
	}
}

// terasortOutput prepares a small terasort input and returns its
// feeder and the correctly sorted output.
func terasortOutput(t *testing.T) (*terasortFeeder, []byte) {
	t.Helper()
	f, err := prepareTerasort(t.TempDir(), 7, 2_000*kernels.SortRecordBytes)
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.path)
	if err != nil {
		t.Fatal(err)
	}
	if err := kernels.SortRecords(out); err != nil {
		t.Fatal(err)
	}
	return f, out
}

// checkTerasort runs the feeder's job check on output streamed through
// the job's Sink.
func checkTerasort(t *testing.T, f *terasortFeeder, output []byte) error {
	t.Helper()
	p, err := f.job(0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.release()
	feedChunks(p.job.Sink, output)
	return p.check(&engine.Result{OutputBytes: int64(len(output))})
}

func TestSortCheckerAcceptsSortedPermutation(t *testing.T) {
	f, out := terasortOutput(t)
	if err := checkTerasort(t, f, out); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
}

func TestSortCheckerRejectsCorruptOutput(t *testing.T) {
	f, out := terasortOutput(t)
	const rec = kernels.SortRecordBytes
	recordAt := func(b []byte, i int) []byte { return b[i*rec : (i+1)*rec] }
	cases := map[string]func([]byte) []byte{
		"swapped record": func(b []byte) []byte {
			a, c := append([]byte(nil), recordAt(b, 10)...), recordAt(b, 11)
			copy(recordAt(b, 10), c)
			copy(recordAt(b, 11), a)
			return b
		},
		"dropped record": func(b []byte) []byte {
			return append(b[:500*rec:500*rec], b[501*rec:]...)
		},
		"record replaced by its neighbour": func(b []byte) []byte {
			copy(recordAt(b, 21), recordAt(b, 20))
			return b
		},
		"flipped value byte": func(b []byte) []byte {
			b[300*rec+50] ^= 1
			return b
		},
		"truncated record": func(b []byte) []byte { return b[:len(b)-1] },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			bad := corrupt(append([]byte(nil), out...))
			if err := checkTerasort(t, f, bad); err == nil {
				t.Fatal("corrupt output accepted")
			}
		})
	}
}

// encryptOutput prepares a small encrypt input and returns its feeder
// and the correct ciphertext.
func encryptOutput(t *testing.T) (*encryptFeeder, []byte) {
	t.Helper()
	const size = 3*genChunk + 17
	f, err := prepareEncrypt(t.TempDir(), 7, size)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := os.ReadFile(f.path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := kernels.NewCipher(f.key)
	if err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, len(plain))
	kernels.CTRStream(c, f.iv, 0, ct, plain)
	return f, ct
}

func checkEncrypt(t *testing.T, f *encryptFeeder, output []byte) error {
	t.Helper()
	p, err := f.job(0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.release()
	feedChunks(p.job.Sink, output)
	return p.check(&engine.Result{OutputBytes: int64(len(output))})
}

func TestDigestSinkAcceptsCiphertext(t *testing.T) {
	f, ct := encryptOutput(t)
	if err := checkEncrypt(t, f, ct); err != nil {
		t.Fatalf("correct ciphertext rejected: %v", err)
	}
}

func TestDigestSinkRejectsCorruptCiphertext(t *testing.T) {
	f, ct := encryptOutput(t)
	flipped := append([]byte(nil), ct...)
	flipped[len(flipped)/2] ^= 0x80
	if err := checkEncrypt(t, f, flipped); err == nil {
		t.Fatal("flipped ciphertext byte accepted")
	}
	if err := checkEncrypt(t, f, ct[:len(ct)-1]); err == nil {
		t.Fatal("truncated ciphertext accepted")
	}
	if err := checkEncrypt(t, f, bytes.Repeat([]byte{0}, len(ct))); err == nil {
		t.Fatal("zero ciphertext accepted")
	}
}

// TestWrongPiCountShowsInErrorRate books one right and one wrong Pi
// result through the run's own accounting.
func TestWrongPiCountShowsInErrorRate(t *testing.T) {
	b := &bench{w: workloads["pi_floor"], in: piFeeder{base: 3}}
	for i := 0; i < 2; i++ {
		p, err := b.take()
		if err != nil {
			t.Fatal(err)
		}
		seed := p.job.Seed
		res := &engine.Result{Inside: piReference(seed), Total: piSamples}
		if i == 1 {
			res.Inside++
		}
		b.finish(p, res, nil)
	}
	rep := b.report(map[string]metric{})
	if rep.Correct || rep.Failed != 1 || rep.Attempted != 2 {
		t.Fatalf("report correct=%v failed=%d attempted=%d, want false, 1, 2", rep.Correct, rep.Failed, rep.Attempted)
	}
	if got := rep.Metrics["success_rate"].Value; got != 0.5 {
		t.Fatalf("success_rate %v, want 0.5", got)
	}
}

// TestTracedJobOnNetBackend runs one small traced terasort job on a
// booted net cluster: the output must verify and the phases must cover
// the job's wall time.
func TestTracedJobOnNetBackend(t *testing.T) {
	dir := t.TempDir()
	w := workloads["terasort"]
	f, err := prepareTerasort(dir, 5, 3*terasortBlock)
	if err != nil {
		t.Fatal(err)
	}
	_, cl, err := openCluster(w.config(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p, err := f.job(0)
	if err != nil {
		t.Fatal(err)
	}
	res, tr, err := runTraced(cl, p.job, w.reducers)
	p.release()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.check(res); err != nil {
		t.Fatalf("traced job output: %v", err)
	}
	var sum time.Duration
	for _, d := range tr.phase {
		if d < 0 {
			t.Fatalf("negative phase in %+v", tr)
		}
		sum += d
	}
	if sum != tr.wall {
		t.Fatalf("phases sum to %v, job took %v", sum, tr.wall)
	}
	if cov := tr.covered.Seconds() / tr.wall.Seconds(); cov < 0.9 {
		t.Fatalf("trace saw phases covering only %.3f of the job", cov)
	}
	if tr.tasks != 3+w.reducers {
		t.Fatalf("traced %d tasks, want %d maps + %d reduces", tr.tasks, 3, w.reducers)
	}
}

func TestDirBytesSumsFilesUnderTree(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "a", "b"), 0o755); err != nil {
		t.Fatal(err)
	}
	for path, size := range map[string]int{"x": 10, "a/y": 200, "a/b/z": 3000} {
		if err := os.WriteFile(filepath.Join(dir, path), make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := dirBytes(dir); err != nil || n != 3210 {
		t.Fatalf("dirBytes = %d, %v; want 3210", n, err)
	}
}
