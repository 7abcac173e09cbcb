package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/maphash"
	"os"
	"path/filepath"
	"time"

	"hetmr/internal/engine"
	"hetmr/internal/kernels"
)

// Sizes shared by the workloads. MB, the unit of every byte figure the
// benchmark reports, is 10^6 bytes.
const (
	MB       = 1e6
	workers  = 4
	slots    = 2
	spillMem = 8 << 20

	terasortBytes     = 100_000_000
	terasortBlock     = 4_000_000
	terasortPartBytes = 8_000_000
	terasortReducers  = terasortBytes / terasortPartBytes

	encryptBytes = 500 << 20
	encryptBlock = 1 << 20

	piSamples = 1_000_000
	piTasks   = 16
	// piSampleBytes is what one Monte Carlo sample draws: two float64
	// coordinates. pi_floor reckons its throughput on these bytes.
	piSampleBytes = 16

	// genChunk is the size in which inputs are generated and hashed,
	// a whole number of terasort records.
	genChunk = 4_000_000
)

// workload is one benchmark workload: a cluster configuration and the
// jobs a single client submits to it, one at a time.
type workload struct {
	name string
	// dataBytes is the DFS input one job stages (0: none); workBytes
	// is what its throughput is reckoned on.
	dataBytes, workBytes int64
	// reducers is the job's reduce-task count (0: map-only), so that
	// map tasks = Status.Total − reducers.
	reducers int
	// warmup jobs run untimed after set-up; the first one's time is
	// reported as warmup.first_job_s.
	warmup int
	// minJobs is the fewest timed jobs a run makes, whatever its
	// --seconds.
	minJobs int
	config  func(spillDir string) engine.Config
	// prepare makes the inputs and reference results from the seed,
	// off the clock.
	prepare func(dir string, seed uint64) (feeder, error)
}

// feeder hands out a prepared workload's jobs.
type feeder interface {
	job(i int) (*pendingJob, error)
}

// pendingJob is one job ready to submit. check runs once the job has
// finished, off the clock; release frees what the job's input held.
type pendingJob struct {
	job     *engine.Job
	check   func(*engine.Result) error
	release func()
}

var workloads = map[string]*workload{
	"terasort": {
		name:      "terasort",
		dataBytes: terasortBytes, workBytes: terasortBytes,
		reducers: terasortReducers,
		warmup:   1, minJobs: 3,
		config: func(spillDir string) engine.Config {
			return engine.Config{
				Workers: workers, MappersPerNode: slots,
				BlockSize:      terasortBlock,
				Reducers:       terasortReducers,
				RangePartition: true,
				SpillMemBytes:  spillMem, SpillDir: spillDir,
				JobTimeout: 5 * time.Minute,
			}
		},
		prepare: func(dir string, seed uint64) (feeder, error) { return prepareTerasort(dir, seed, terasortBytes) },
	},
	"encrypt": {
		name:      "encrypt",
		dataBytes: encryptBytes, workBytes: encryptBytes,
		warmup: 1, minJobs: 3,
		config: func(spillDir string) engine.Config {
			return engine.Config{
				Workers: workers, MappersPerNode: slots,
				BlockSize:     encryptBlock,
				Mapper:        "cell",
				AccelFraction: 0.5,
				SpillMemBytes: spillMem, SpillDir: spillDir,
				JobTimeout: 5 * time.Minute,
			}
		},
		prepare: func(dir string, seed uint64) (feeder, error) { return prepareEncrypt(dir, seed, encryptBytes) },
	},
	"pi_floor": {
		name:      "pi_floor",
		workBytes: piSamples * piSampleBytes,
		warmup:    3, minJobs: 100,
		config: func(string) engine.Config {
			return engine.Config{
				Workers: workers, MappersPerNode: slots,
				Mapper:        "cell",
				AccelFraction: 0.5,
				JobTimeout:    time.Minute,
			}
		},
		prepare: func(_ string, seed uint64) (feeder, error) { return piFeeder{base: seed}, nil },
	},
}

// fillRandom fills p from a splitmix64 stream seeded by state.
func fillRandom(p []byte, state uint64) {
	var w [8]byte
	for i := 0; i < len(p); i += 8 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(w[:], z^(z>>31))
		copy(p[i:], w[:])
	}
}

// writeInput generates size bytes into a new file at path, gen(chunk,
// i) filling the i-th genChunk-sized chunk, and passes each chunk to
// observe as it is written.
func writeInput(path string, size int64, gen func(chunk []byte, i int), observe func(off int64, chunk []byte)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, genChunk)
	buf := make([]byte, genChunk)
	for off, i := int64(0), 0; off < size; i++ {
		chunk := buf
		if rest := size - off; rest < int64(len(chunk)) {
			chunk = chunk[:rest]
		}
		gen(chunk, i)
		observe(off, chunk)
		if _, err := bw.Write(chunk); err != nil {
			f.Close()
			return err
		}
		off += int64(len(chunk))
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- terasort ---------------------------------------------------------

// recordHashSeed keys the record-multiset checksum. Inputs and outputs
// are hashed in the same process, so a per-process seed suffices.
var recordHashSeed = maphash.MakeSeed()

// recordSum is an order-independent checksum of a multiset of 100-byte
// records: their count and the sum of their hashes.
type recordSum struct {
	n   int64
	sum uint64
}

func (s *recordSum) add(rec []byte) {
	s.n++
	s.sum += maphash.Bytes(recordHashSeed, rec)
}

func (s *recordSum) addAll(buf []byte) {
	for len(buf) >= kernels.SortRecordBytes {
		s.add(buf[:kernels.SortRecordBytes])
		buf = buf[kernels.SortRecordBytes:]
	}
}

type terasortFeeder struct {
	path string
	size int64
	want recordSum
}

// prepareTerasort writes size bytes of seeded random 100-byte records,
// chunk i generated by kernels.GenerateSortRecords from MixSeed(seed,
// i), and sums their multiset checksum.
func prepareTerasort(dir string, seed uint64, size int64) (*terasortFeeder, error) {
	f := &terasortFeeder{path: filepath.Join(dir, "terasort.in"), size: size}
	err := writeInput(f.path, size,
		func(chunk []byte, i int) {
			copy(chunk, kernels.GenerateSortRecords(kernels.MixSeed(seed, uint64(i)), len(chunk)/kernels.SortRecordBytes))
		},
		func(_ int64, chunk []byte) { f.want.addAll(chunk) })
	if err != nil {
		return nil, fmt.Errorf("prepare terasort input: %w", err)
	}
	return f, nil
}

func (f *terasortFeeder) job(i int) (*pendingJob, error) {
	src, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	sink := &sortChecker{}
	return &pendingJob{
		job: &engine.Job{Name: fmt.Sprintf("terasort-%d", i), Kind: engine.Sort,
			Source: src, Sink: sink},
		check: func(res *engine.Result) error {
			if res.OutputBytes != f.size {
				return fmt.Errorf("job reported %d output bytes, want %d", res.OutputBytes, f.size)
			}
			return sink.verify(f.want, f.size)
		},
		release: func() { src.Close() },
	}, nil
}

// sortChecker is a terasort Sink that verifies as it receives: keys
// must be non-decreasing across Write boundaries, and the byte count
// and record multiset must match the input's.
type sortChecker struct {
	carry []byte // a record split across Writes
	prev  [kernels.SortKeyBytes]byte
	have  bool
	bytes int64
	sum   recordSum
	err   error // first order violation
}

func (c *sortChecker) Write(p []byte) (int, error) {
	n := len(p)
	c.bytes += int64(n)
	if len(c.carry) > 0 {
		need := kernels.SortRecordBytes - len(c.carry)
		if len(p) < need {
			c.carry = append(c.carry, p...)
			return n, nil
		}
		c.carry = append(c.carry, p[:need]...)
		c.record(c.carry)
		c.carry = c.carry[:0]
		p = p[need:]
	}
	for len(p) >= kernels.SortRecordBytes {
		c.record(p[:kernels.SortRecordBytes])
		p = p[kernels.SortRecordBytes:]
	}
	c.carry = append(c.carry, p...)
	return n, nil
}

func (c *sortChecker) record(rec []byte) {
	key := rec[:kernels.SortKeyBytes]
	if c.have && c.err == nil && bytes.Compare(c.prev[:], key) > 0 {
		c.err = fmt.Errorf("record %d: key %x sorts before its predecessor %x", c.sum.n, key, c.prev)
	}
	copy(c.prev[:], key)
	c.have = true
	c.sum.add(rec)
}

// verify reports whether the stream was a sorted permutation of the
// input summed in want.
func (c *sortChecker) verify(want recordSum, size int64) error {
	switch {
	case c.err != nil:
		return c.err
	case len(c.carry) != 0:
		return fmt.Errorf("output ends in a partial %d-byte record", len(c.carry))
	case c.bytes != size:
		return fmt.Errorf("output has %d bytes, want %d", c.bytes, size)
	case c.sum != want:
		return fmt.Errorf("output records (%d) are not a permutation of the input's (%d)", c.sum.n, want.n)
	}
	return nil
}

// --- encrypt ----------------------------------------------------------

type encryptFeeder struct {
	path    string
	size    int64
	key, iv []byte
	digest  [sha256.Size]byte
}

// prepareEncrypt writes size bytes of seeded plaintext and the SHA-256
// of its AES-128-CTR ciphertext under a seeded key and IV, computed
// with kernels.CTRStreamFast.
func prepareEncrypt(dir string, seed uint64, size int64) (*encryptFeeder, error) {
	f := &encryptFeeder{path: filepath.Join(dir, "encrypt.in"), size: size,
		key: make([]byte, 16), iv: make([]byte, 16)}
	fillRandom(f.key, kernels.MixSeed(seed, 1<<32))
	fillRandom(f.iv, kernels.MixSeed(seed, 1<<32+1))
	c, err := kernels.NewCipher(f.key)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	ct := make([]byte, genChunk)
	err = writeInput(f.path, size,
		func(chunk []byte, i int) { fillRandom(chunk, kernels.MixSeed(seed, uint64(i))) },
		func(off int64, chunk []byte) {
			kernels.CTRStreamFast(c, f.iv, off, ct[:len(chunk)], chunk)
			h.Write(ct[:len(chunk)])
		})
	if err != nil {
		return nil, fmt.Errorf("prepare encrypt input: %w", err)
	}
	h.Sum(f.digest[:0])
	return f, nil
}

func (f *encryptFeeder) job(i int) (*pendingJob, error) {
	src, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	sink := newDigestSink()
	return &pendingJob{
		job: &engine.Job{Name: fmt.Sprintf("encrypt-%d", i), Kind: engine.Encrypt,
			Source: src, Sink: sink, Key: f.key, IV: f.iv},
		check: func(res *engine.Result) error {
			if res.OutputBytes != f.size {
				return fmt.Errorf("job reported %d output bytes, want %d", res.OutputBytes, f.size)
			}
			return sink.verify(f.digest, f.size)
		},
		release: func() { src.Close() },
	}, nil
}

// digestSink is an encrypt Sink that hashes the ciphertext stream.
type digestSink struct {
	h     hash.Hash
	bytes int64
}

func newDigestSink() *digestSink { return &digestSink{h: sha256.New()} }

func (d *digestSink) Write(p []byte) (int, error) {
	d.bytes += int64(len(p))
	return d.h.Write(p)
}

func (d *digestSink) verify(want [sha256.Size]byte, size int64) error {
	if d.bytes != size {
		return fmt.Errorf("ciphertext has %d bytes, want %d", d.bytes, size)
	}
	if got := d.h.Sum(nil); !bytes.Equal(got, want[:]) {
		return fmt.Errorf("ciphertext SHA-256 %x, want %x", got, want)
	}
	return nil
}

// --- pi_floor ---------------------------------------------------------

// piFeeder hands out back-to-back Pi jobs, job i seeded by
// MixSeed(base, i).
type piFeeder struct{ base uint64 }

func (p piFeeder) job(i int) (*pendingJob, error) {
	seed := kernels.MixSeed(p.base, uint64(i))
	return &pendingJob{
		job: &engine.Job{Name: fmt.Sprintf("pi-%d", i), Kind: engine.Pi,
			Samples: piSamples, Tasks: piTasks, Seed: seed},
		check:   func(res *engine.Result) error { return checkPi(res, seed) },
		release: func() {},
	}, nil
}

// piReference counts the samples inside the quarter circle for a Pi
// job seeded by seed, task by task as every backend splits it.
func piReference(seed uint64) int64 {
	var inside int64
	for _, s := range kernels.SplitSamples(piSamples, piTasks, seed) {
		inside += kernels.CountInsideFrom(s.Seed, 0, s.Samples)
	}
	return inside
}

func checkPi(res *engine.Result, seed uint64) error {
	want := piReference(seed)
	if res.Inside != want || res.Total != piSamples {
		return fmt.Errorf("pi seed %d: inside/total %d/%d, want %d/%d", seed, res.Inside, res.Total, want, piSamples)
	}
	return nil
}
