package spill

import (
	"compress/flate"
	"io"
)

// Codec is a streaming frame compressor for spilled payloads and
// negotiated wire connections. Implementations must round-trip
// exactly: NewReader(NewWriter(frame)) yields the original bytes.
type Codec interface {
	// Name labels the codec in diagnostics.
	Name() string
	// NewWriter wraps w with a compressing writer; Close flushes the
	// frame without closing w.
	NewWriter(w io.Writer) io.WriteCloser
	// NewReader wraps r with the matching decompressor.
	NewReader(r io.Reader) (io.ReadCloser, error)
}

// CodecByName resolves a built-in codec by its Name: "flate" (DEFLATE)
// is the one built-in. It is the negotiation table the rpcnet wire
// layer and the engine's Config.Codec knob share, so a codec name
// means the same codec on every layer. Unknown names report false.
func CodecByName(name string) (Codec, bool) {
	if name == "flate" {
		return Flate(), true
	}
	return nil, false
}

// CodecNames lists the built-in codec names CodecByName resolves.
func CodecNames() []string { return []string{"flate"} }

// Flate returns the built-in codec: DEFLATE at the fastest setting
// (fast, modest ratio, streaming).
func Flate() Codec { return flateCodec{} }

type flateCodec struct{}

func (flateCodec) Name() string { return "flate" }

func (flateCodec) NewWriter(w io.Writer) io.WriteCloser {
	// BestSpeed can't fail for a valid level; the error path exists
	// for out-of-range levels only.
	fw, err := flate.NewWriter(w, flate.BestSpeed)
	if err != nil {
		panic("spill: flate.NewWriter: " + err.Error())
	}
	return fw
}

func (flateCodec) NewReader(r io.Reader) (io.ReadCloser, error) {
	return flate.NewReader(r), nil
}
