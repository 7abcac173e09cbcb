package netmr

import (
	"bytes"
	"testing"
	"time"

	"hetmr/internal/metrics"
)

// TestWireCodecCompressesDataPlane proves the negotiated wire codec
// actually engages on the DFS block path: a compressible file written
// and read through a WithWireCodec cluster must move fewer bytes on
// the wire than its raw payload size, and round-trip bit-identically.
func TestWireCodecCompressesDataPlane(t *testing.T) {
	cluster, err := StartCluster(2, 2, 8_000, 20*time.Millisecond, WithWireCodec("flate"))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()

	data := bytes.Repeat([]byte("hetmr wire compression block payload "), 2_000)
	metrics.WireBytesRaw.Reset()
	metrics.WireBytesOnWire.Reset()
	if err := cluster.Client.WriteFile("/wire/compressible", data, ""); err != nil {
		t.Fatal(err)
	}
	got, err := cluster.Client.ReadFile("/wire/compressible")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("compressed wire corrupted the file: %d bytes back, want %d", len(got), len(data))
	}
	raw, wire := metrics.WireBytesRaw.Load(), metrics.WireBytesOnWire.Load()
	if raw == 0 {
		t.Fatal("wire meters never moved")
	}
	// The payload crosses the wire twice (Put and Get) and is highly
	// repetitive; anything close to raw means compression never
	// engaged.
	if wire >= raw {
		t.Fatalf("wire bytes %d not below raw %d with flate negotiated", wire, raw)
	}
	if wire > raw/2 {
		t.Fatalf("wire bytes %d saved too little of raw %d for a repetitive payload", wire, raw)
	}
}

// TestWireCodecOffMovesRawBytes pins the default: no codec, wire
// bytes equal raw bytes.
func TestWireCodecOffMovesRawBytes(t *testing.T) {
	cluster, err := StartCluster(1, 2, 8_000, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Shutdown()
	data := bytes.Repeat([]byte("plain "), 4_000)
	metrics.WireBytesRaw.Reset()
	metrics.WireBytesOnWire.Reset()
	if err := cluster.Client.WriteFile("/wire/plain", data, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Client.ReadFile("/wire/plain"); err != nil {
		t.Fatal(err)
	}
	if raw, wire := metrics.WireBytesRaw.Load(), metrics.WireBytesOnWire.Load(); raw != wire {
		t.Fatalf("no codec negotiated but wire bytes %d differ from raw %d", wire, raw)
	}
}

// TestUnknownWireCodecRejected pins fail-fast validation at both
// construction sites.
func TestUnknownWireCodecRejected(t *testing.T) {
	if _, err := NewClient("127.0.0.1:1", "127.0.0.1:1", 1024, WithClientWireCodec("nope")); err == nil {
		t.Error("NewClient accepted an unknown wire codec")
	}
	if _, err := StartTaskTracker("t", "127.0.0.1:1", "", 1, time.Second, WithTrackerWireCodec("nope")); err == nil {
		t.Error("StartTaskTracker accepted an unknown wire codec")
	}
}
