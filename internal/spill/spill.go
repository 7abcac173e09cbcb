// Package spill is the bounded-memory payload store behind the
// streaming data plane: a keyed byte store that keeps payloads in
// memory up to a configurable watermark and spills the rest to files
// under a temp directory, optionally compressed frame by frame. One
// implementation backs the DFS block stores (internal/hdfs), the
// tracker-side shuffle stores (internal/netmr) and the live runner's
// sorted-run stores (internal/core), so every layer shares the same
// watermark semantics and the same SpillBytes meter
// (internal/metrics).
//
// Every payload lives in exactly one place: in memory, or in its spill
// frame on disk. Reads are sized from the stored entry, and a range
// read of an uncompressed frame touches only the bytes it returns.
package spill

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"

	"hetmr/internal/metrics"
)

// NoSpill keeps every payload in memory — the historical behaviour of
// the stores this package replaced. Any negative memLimit means the
// same; this constant just names the convention. A memLimit of 0
// spills every payload (a pure file store). There is deliberately no
// "SpillAll" constant here: the engine layer exports one with a
// different value for its own zero-value-friendly convention, and two
// identically named constants with opposite meanings would be a trap.
const NoSpill int64 = -1

// entry is one stored payload: in memory or spilled to a file, never
// both.
type entry struct {
	mem  []byte
	path string // spilled frame ("" while in memory)
	size int64  // payload size, pre-compression
}

// Store is a keyed payload store with a memory watermark. It is safe
// for concurrent use. Payloads returned by Get alias the store's
// in-memory copy and must not be modified.
type Store struct {
	mu       sync.Mutex
	baseDir  string // caller-supplied parent for the spill dir
	dir      string // created lazily on first spill
	memLimit int64
	codec    Codec
	entries  map[string]entry
	memUse   int64
	held     int64 // resident payload bytes, in memory or on disk
	spilled  int64
	seq      int
	closed   bool
}

// NewStore builds a store spilling under a fresh directory inside
// baseDir ("" selects os.TempDir()). memLimit is the in-memory
// watermark in bytes: NoSpill (any negative value) never spills, zero
// spills everything, a positive limit keeps payloads in memory until
// adding one would exceed it. codec, when non-nil, compresses spilled
// frames (in-memory payloads are never compressed).
func NewStore(baseDir string, memLimit int64, codec Codec) *Store {
	return &Store{
		baseDir:  baseDir,
		memLimit: memLimit,
		codec:    codec,
		entries:  make(map[string]entry),
	}
}

// spillDir lazily creates the spill directory. Callers hold s.mu.
func (s *Store) spillDir() (string, error) {
	if s.dir != "" {
		return s.dir, nil
	}
	base := s.baseDir
	if base == "" {
		base = os.TempDir()
	}
	dir, err := os.MkdirTemp(base, "hetmr-spill-")
	if err != nil {
		return "", fmt.Errorf("spill: %w", err)
	}
	s.dir = dir
	return dir, nil
}

// Put stores data under key, replacing any previous payload. The
// store copies in-memory payloads, so the caller keeps ownership of
// data.
func (s *Store) Put(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("spill: put %q on closed store", key)
	}
	s.dropLocked(key)
	size := int64(len(data))
	if s.memLimit < 0 || s.memUse+size <= s.memLimit {
		s.entries[key] = entry{mem: append([]byte(nil), data...), size: size}
		s.memUse += size
		s.held += size
		return nil
	}
	dir, err := s.spillDir()
	if err != nil {
		return err
	}
	s.seq++
	path := fmt.Sprintf("%s%cf%06d", dir, os.PathSeparator, s.seq)
	if err := s.writeFrame(path, data); err != nil {
		return err
	}
	s.entries[key] = entry{path: path, size: size}
	s.held += size
	s.spilled += size
	metrics.SpillBytes.Add(size)
	return nil
}

// writeFrame writes one payload to path, through the codec when set.
func (s *Store) writeFrame(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	var w io.Writer = f
	var cw io.WriteCloser
	if s.codec != nil {
		cw = s.codec.NewWriter(f)
		w = cw
	}
	if _, err := w.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("spill: write frame: %w", err)
	}
	if cw != nil {
		if err := cw.Close(); err != nil {
			f.Close()
			return fmt.Errorf("spill: close frame: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	return nil
}

// Get returns the payload under key. In-memory payloads are returned
// without copying (treat them as immutable); a spilled payload is read
// back whole into one buffer sized from the entry — O(payload)
// transient memory, freed once the caller drops it.
func (s *Store) Get(key string) ([]byte, error) {
	e, err := s.lookup(key)
	if err != nil || e.path == "" {
		return e.mem, err
	}
	r, err := s.openFrame(e.path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	out := make([]byte, e.size)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, fmt.Errorf("spill: read frame: %w", err)
	}
	return out, nil
}

// lookup returns key's entry; path == "" means it is in memory.
func (s *Store) lookup(key string) (entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return entry{}, fmt.Errorf("spill: no payload under %q", key)
	}
	return e, nil
}

// Open returns a streaming reader over key's payload — the chunked
// read path: a spilled payload streams from its file (through the
// codec) without materializing.
func (s *Store) Open(key string) (io.ReadCloser, error) {
	e, err := s.lookup(key)
	if err != nil {
		return nil, err
	}
	if e.path == "" {
		return io.NopCloser(bytes.NewReader(e.mem)), nil
	}
	return s.openFrame(e.path)
}

// GetRange returns up to max bytes of key's payload starting at off,
// along with the payload's total size — the primitive behind chunked
// FetchPartition serving. max <= 0 means "the rest". Reads past the
// end return an empty slice, not an error, so callers can detect the
// end by comparing off against the returned size. In-memory payloads
// are sliced without copying; an uncompressed spilled frame serves
// the window with one ReadAt, so a chunk costs its own bytes, not the
// frame's. A compressed frame has no block index: it is decoded from
// the start and the prefix before off discarded.
func (s *Store) GetRange(key string, off, max int64) ([]byte, int64, error) {
	if off < 0 {
		return nil, 0, fmt.Errorf("spill: negative offset %d for %q", off, key)
	}
	e, err := s.lookup(key)
	if err != nil {
		return nil, 0, err
	}
	if off >= e.size {
		return nil, e.size, nil
	}
	n := e.size - off
	if max > 0 && max < n {
		n = max
	}
	if e.path == "" {
		return e.mem[off : off+n], e.size, nil
	}
	r, err := s.openFrame(e.path)
	if err != nil {
		return nil, 0, err
	}
	defer r.Close()
	out := make([]byte, n)
	if f, ok := r.(*os.File); ok {
		if _, err := f.ReadAt(out, off); err != nil {
			return nil, 0, fmt.Errorf("spill: read frame range: %w", err)
		}
		return out, e.size, nil
	}
	if _, err := io.CopyN(io.Discard, r, off); err != nil {
		return nil, 0, fmt.Errorf("spill: seek frame: %w", err)
	}
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, 0, fmt.Errorf("spill: read frame range: %w", err)
	}
	return out, e.size, nil
}

// openFrame opens a spilled frame as a payload stream: the bare file
// when no codec is set, the codec's decompressor over it otherwise.
func (s *Store) openFrame(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spill: %w", err)
	}
	if s.codec == nil {
		return f, nil
	}
	cr, err := s.codec.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("spill: open frame: %w", err)
	}
	return &frameReader{ReadCloser: cr, file: f}, nil
}

// frameReader closes both the codec stream and the underlying file.
type frameReader struct {
	io.ReadCloser
	file *os.File
}

func (r *frameReader) Close() error {
	err := r.ReadCloser.Close()
	if ferr := r.file.Close(); err == nil {
		err = ferr
	}
	return err
}

// Size returns the payload size under key (pre-compression).
func (s *Store) Size(key string) (int64, error) {
	e, err := s.lookup(key)
	return e.size, err
}

// Delete removes key's payload (and its spill file, if any). Deleting
// an absent key is a no-op.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropLocked(key)
}

// dropLocked removes one entry. Callers hold s.mu.
func (s *Store) dropLocked(key string) {
	e, ok := s.entries[key]
	if !ok {
		return
	}
	if e.path == "" {
		s.memUse -= e.size
	} else {
		os.Remove(e.path)
	}
	s.held -= e.size
	delete(s.entries, key)
}

// MemBytes reports the bytes currently held in memory.
func (s *Store) MemBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memUse
}

// HeldBytes reports the resident payload bytes the store currently
// holds, in memory or in spill frames (sizes pre-compression) — the
// live-footprint figure behind per-tenant spill budgets, where
// SpilledBytes is a cumulative traffic meter.
func (s *Store) HeldBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held
}

// SpilledBytes reports the cumulative payload bytes spilled to disk
// (pre-compression).
func (s *Store) SpilledBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spilled
}

// Len reports the number of stored payloads.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Close drops every payload and removes the spill directory. The
// store rejects further Puts; Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.entries = make(map[string]entry)
	s.memUse = 0
	s.held = 0
	if s.dir != "" {
		return os.RemoveAll(s.dir)
	}
	return nil
}
