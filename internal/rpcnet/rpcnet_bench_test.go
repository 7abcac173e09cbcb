package rpcnet

import (
	"testing"
)

func benchServer(b *testing.B, opts ...Option) (*Server, *Client) {
	b.Helper()
	s, err := NewServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	s.Handle("echo", func(body []byte) (any, error) {
		var blob []byte
		if err := Unmarshal(body, &blob); err != nil {
			return nil, err
		}
		return blob, nil
	})
	c, err := Dial(s.Addr(), opts...)
	if err != nil {
		s.Close()
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close(); s.Close() })
	return s, c
}

// BenchmarkCallSmall measures RPC round-trip latency for tiny
// payloads (the heartbeat path).
func BenchmarkCallSmall(b *testing.B) {
	_, c := benchServer(b)
	arg := []byte("ping")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out []byte
		if err := c.Call("echo", arg, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallBlock64K measures the block-fetch path (a DFS block
// crossing the loopback TCP stack — the hop the paper measured).
func BenchmarkCallBlock64K(b *testing.B) {
	_, c := benchServer(b)
	blob := make([]byte, 64<<10)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out []byte
		if err := c.Call("echo", blob, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallSmallConcurrent measures small-call latency with many
// callers multiplexed on one pooled client — the win the tagged-frame
// protocol exists for (v1 serialized every call behind one lock).
func BenchmarkCallSmallConcurrent(b *testing.B) {
	_, c := benchServer(b)
	arg := []byte("ping")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			var out []byte
			if err := c.Call("echo", arg, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCallBlock64KConcurrent measures aggregate block throughput
// with concurrent callers sharing the pool.
func BenchmarkCallBlock64KConcurrent(b *testing.B) {
	_, c := benchServer(b)
	blob := make([]byte, 64<<10)
	b.SetBytes(int64(len(blob)))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			var out []byte
			if err := c.Call("echo", blob, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
