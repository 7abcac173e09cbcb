package rpcnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to the frame decoder. Malformed
// input — lying length prefixes, truncated headers, meta running past
// the frame — must return an error, never panic, and never allocate
// past MaxFrame: the decoder pre-grows at most preGrowCap and then
// only as real bytes arrive.
func FuzzReadFrame(f *testing.F) {
	// Well-formed frames as seeds.
	good := func(id uint64, flags byte, meta string, body []byte) []byte {
		var buf bytes.Buffer
		var wmu sync.Mutex
		if err := writeFrame(&buf, &wmu, id, flags, meta, body); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(good(1, 0, "echo", []byte("hello")))
	f.Add(good(7, frameFlagResponse, "", bytes.Repeat([]byte("x"), 100)))
	// Length prefix claiming MaxFrame with no body behind it.
	var lying [frameHeaderLen]byte
	binary.BigEndian.PutUint32(lying[0:4], MaxFrame)
	f.Add(lying[:])
	// Length prefix over MaxFrame.
	binary.BigEndian.PutUint32(lying[0:4], MaxFrame+1)
	f.Add(lying[:])
	// metaLen pointing past the frame end.
	var badMeta [frameHeaderLen]byte
	binary.BigEndian.PutUint32(badMeta[0:4], frameFixedLen+1)
	binary.BigEndian.PutUint16(badMeta[13:15], 5000)
	f.Add(badMeta[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		fr, err := readFrame(br)
		if err != nil {
			return
		}
		if int64(len(fr.meta))+int64(fr.body.Len()) > int64(len(data)) {
			t.Fatalf("decoded more bytes (%d meta + %d body) than the input held (%d)",
				len(fr.meta), fr.body.Len(), len(data))
		}
		putBuf(fr.body)
	})
}

// FuzzReadHello feeds arbitrary bytes to the hello decoder.
func FuzzReadHello(f *testing.F) {
	f.Add([]byte("hmr2\x05flate"))
	f.Add([]byte("hmr2\x00"))
	f.Add([]byte("junk\x04snap"))
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		name, err := readHello(br)
		if err == nil && len(name) > 255 {
			t.Fatalf("hello name longer than the 1-byte length allows: %d", len(name))
		}
	})
}

// FuzzServeConn runs raw fuzz bytes through a live server connection:
// whatever arrives on the socket — garbage hello, corrupt frames,
// truncated gob bodies — must never crash the server.
func FuzzServeConn(f *testing.F) {
	f.Add([]byte("hmr2\x00"))
	f.Add(append([]byte("hmr2\x05flate"), 0, 0, 0, 30))
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	s.Handle("echo", func(b []byte) (any, error) { return b, nil })
	f.Fuzz(func(t *testing.T, data []byte) {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Skip(err)
		}
		conn.Write(data)
		conn.Close()
	})
}
