package spill

import (
	"slices"
	"testing"
)

// TestCodecByName pins the codec table; TestCodecRoundTrip covers the
// codec's frames through a store.
func TestCodecByName(t *testing.T) {
	if got := CodecNames(); !slices.Equal(got, []string{"flate"}) {
		t.Fatalf("CodecNames() = %q, want [flate]", got)
	}
	for _, name := range CodecNames() {
		if c, ok := CodecByName(name); !ok || c.Name() != name {
			t.Errorf("CodecByName(%q) = (%v, %v)", name, c, ok)
		}
	}
	for _, name := range []string{"nope", "snap"} {
		if _, ok := CodecByName(name); ok {
			t.Errorf("unknown codec %q resolved", name)
		}
	}
}
