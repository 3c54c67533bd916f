package replica

import (
	"bytes"
	"testing"
)

// FuzzDecodeEvent feeds arbitrary bytes to the apply endpoint's event
// decoder. Decoding must never panic, and any event that decodes must
// round-trip: re-encoding it yields bytes that decode and re-encode to
// the same bytes.
func FuzzDecodeEvent(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		ev, err := DecodeEvent(raw)
		if err != nil {
			return
		}
		enc, err := EncodeEvent(ev)
		if err != nil {
			t.Fatalf("decoded event does not re-encode: %v", err)
		}
		again, err := DecodeEvent(enc)
		if err != nil {
			t.Fatalf("re-encoded event does not decode: %v", err)
		}
		enc2, err := EncodeEvent(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("event does not round-trip: %q seq %d", ev.ID, ev.Pub.Seq)
		}
	})
}
