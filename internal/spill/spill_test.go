package spill

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func payload(n int, salt byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i)*31 + salt
	}
	return p
}

func TestMemoryOnlyNeverSpills(t *testing.T) {
	s := NewStore(t.TempDir(), NoSpill, nil)
	defer s.Close()
	for i := 0; i < 8; i++ {
		if err := s.Put(string(rune('a'+i)), payload(10_000, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.SpilledBytes() != 0 {
		t.Fatalf("spilled %d bytes with NoSpill", s.SpilledBytes())
	}
	if s.MemBytes() != 80_000 {
		t.Fatalf("mem use %d, want 80000", s.MemBytes())
	}
}

func TestWatermarkSpillsAboveLimit(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(dir, 25_000, nil)
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Put(string(rune('a'+i)), payload(10_000, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.MemBytes(); got > 25_000 {
		t.Fatalf("mem use %d exceeds the 25000 watermark", got)
	}
	if got := s.SpilledBytes(); got != 30_000 {
		t.Fatalf("spilled %d bytes, want 30000", got)
	}
	// Every payload reads back identically, spilled or not.
	for i := 0; i < 5; i++ {
		got, err := s.Get(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload(10_000, byte(i))) {
			t.Fatalf("payload %d corrupted", i)
		}
	}
}

func TestSpillAllAndStreamingOpen(t *testing.T) {
	s := NewStore(t.TempDir(), 0, nil)
	defer s.Close()
	want := payload(50_000, 7)
	if err := s.Put("k", want); err != nil {
		t.Fatal(err)
	}
	if s.MemBytes() != 0 {
		t.Fatalf("mem use %d with SpillAll", s.MemBytes())
	}
	r, err := s.Open("k")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("streamed payload differs")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	s := NewStore(t.TempDir(), 0, Flate())
	defer s.Close()
	// Compressible payload: the frame on disk must be smaller, the
	// read-back identical.
	want := bytes.Repeat([]byte("becerra cell spe "), 4_000)
	if err := s.Put("k", want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("compressed payload did not round-trip")
	}
	var onDisk int64
	filepath.Walk(s.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			onDisk += info.Size()
		}
		return nil
	})
	if onDisk >= int64(len(want)) {
		t.Fatalf("frame on disk %d >= payload %d: codec did not compress", onDisk, len(want))
	}
}

func TestPutReplacesAndDeleteFrees(t *testing.T) {
	s := NewStore(t.TempDir(), NoSpill, nil)
	defer s.Close()
	if err := s.Put("k", payload(1_000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", payload(500, 2)); err != nil {
		t.Fatal(err)
	}
	if got := s.MemBytes(); got != 500 {
		t.Fatalf("mem use %d after replace, want 500", got)
	}
	got, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload(500, 2)) {
		t.Fatal("replaced payload differs")
	}
	s.Delete("k")
	if s.MemBytes() != 0 || s.Len() != 0 {
		t.Fatal("delete did not free the entry")
	}
	if _, err := s.Get("k"); err == nil {
		t.Fatal("Get after Delete succeeded")
	}
}

func TestCloseRemovesSpillDir(t *testing.T) {
	base := t.TempDir()
	s := NewStore(base, 0, nil)
	if err := s.Put("k", payload(1_000, 3)); err != nil {
		t.Fatal(err)
	}
	dir := s.dir
	if dir == "" {
		t.Fatal("no spill dir created")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir %s survived Close", dir)
	}
	if err := s.Put("k", nil); err == nil {
		t.Fatal("Put on closed store succeeded")
	}
}

func TestGetRange(t *testing.T) {
	for _, tc := range []struct {
		name    string
		limit   int64
		codec   Codec
		primary int // bytes of primary payloads stored first
		size    int
		spills  bool
	}{
		{"memory", NoSpill, nil, 0, 50_000, false},
		{"spilled", 0, nil, 0, 50_000, true},
		{"spilled-codec", 0, flateCodec{}, 0, 50_000, true},
		// The case every benchmark workload hits: primaries already
		// fill the watermark, so a payload that would fit under it
		// spills behind them.
		{"watermark-full", 60_000, nil, 60_000, 50_000, true},
		{"watermark-full-codec", 60_000, flateCodec{}, 60_000, 50_000, true},
		// A zero-length payload always fits, even under a full
		// watermark.
		{"empty", 0, nil, 0, 0, false},
		{"empty-watermark-full", 60_000, flateCodec{}, 60_000, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewStore(t.TempDir(), tc.limit, tc.codec)
			defer s.Close()
			for i := 0; i < tc.primary/10_000; i++ {
				if err := s.Put(string(rune('a'+i)), payload(10_000, byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			data := payload(tc.size, 5)
			size := int64(tc.size)
			if err := s.Put("k", data); err != nil {
				t.Fatal(err)
			}
			if spilled := s.SpilledBytes() == size && size > 0; spilled != tc.spills {
				t.Fatalf("spilled %d bytes of %d, want spilled=%v", s.SpilledBytes(), size, tc.spills)
			}
			if got := s.MemBytes(); tc.limit >= 0 && got > tc.limit {
				t.Fatalf("mem use %d exceeds the %d watermark", got, tc.limit)
			}
			// Whole payload via chunked reads; every window matches.
			for _, chunk := range []int64{4_096, 7_000} {
				var got []byte
				for off := int64(0); ; {
					part, n, err := s.GetRange("k", off, chunk)
					if err != nil {
						t.Fatal(err)
					}
					if n != size {
						t.Fatalf("size %d, want %d", n, size)
					}
					if want := data[off:min(off+chunk, size)]; !bytes.Equal(part, want) {
						t.Fatalf("chunk %d at %d: got %d bytes, want %d", chunk, off, len(part), len(want))
					}
					got = append(got, part...)
					off += int64(len(part))
					if off >= n {
						break
					}
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("chunk %d: reads disagree with payload", chunk)
				}
			}
			// Reads at or past the end return empty, not an error.
			for _, off := range []int64{size, size + 1, size + 10_000} {
				part, n, err := s.GetRange("k", off, 1_000)
				if err != nil || len(part) != 0 || n != size {
					t.Fatalf("read at %d = (%d bytes, %d, %v)", off, len(part), n, err)
				}
			}
			// max <= 0 reads the rest.
			for _, max := range []int64{0, -1} {
				off := size / 2
				rest, _, err := s.GetRange("k", off, max)
				if err != nil || !bytes.Equal(rest, data[off:]) {
					t.Fatalf("rest read (max %d) wrong: %d bytes, %v", max, len(rest), err)
				}
			}
			if _, _, err := s.GetRange("k", -1, 10); err == nil {
				t.Fatal("negative offset should error")
			}
			if _, _, err := s.GetRange("missing", 0, 10); err == nil {
				t.Fatal("missing key should error")
			}
			// Get returns exactly the payload; a spilled read is sized
			// from the entry, with no growth slack.
			whole, err := s.Get("k")
			if err != nil || !bytes.Equal(whole, data) {
				t.Fatalf("Get = %d bytes, %v", len(whole), err)
			}
			if tc.spills && cap(whole) != tc.size {
				t.Fatalf("Get of spilled payload: len %d cap %d, want %d", len(whole), cap(whole), tc.size)
			}
			// A window of an uncompressed frame costs its own bytes
			// (plus a file handle), not the frame's.
			if tc.spills && tc.codec == nil {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				if _, _, err := s.GetRange("k", 1_000, 1_000); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&m1)
				if got := m1.TotalAlloc - m0.TotalAlloc; got > uint64(tc.size)/4 {
					t.Fatalf("1000-byte window of a %d-byte frame allocated %d bytes", tc.size, got)
				}
			}
		})
	}
}
