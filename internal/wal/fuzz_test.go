package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder two
// ways — as a raw frame, and as the gob payload of a frame with a
// valid length and checksum, so the fuzzer reaches the decoder past
// the CRC gate. Decoding must never panic, and any record that decodes
// must round-trip: re-encoding it yields a frame that decodes and
// re-encodes to the same bytes.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecode(t, raw)
		frame := make([]byte, recHeaderLen+len(raw))
		binary.BigEndian.PutUint32(frame[0:4], uint32(len(raw)))
		binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(raw))
		copy(frame[recHeaderLen:], raw)
		checkDecode(t, frame)
	})
}

func checkDecode(t *testing.T, raw []byte) {
	rec, n, err := decodeRecord(raw)
	if err != nil {
		return
	}
	if n < recHeaderLen || n > int64(len(raw)) {
		t.Fatalf("decoded frame length %d outside input of %d bytes", n, len(raw))
	}
	frame, err := encodeRecord(rec)
	if err != nil {
		t.Fatalf("decoded record does not re-encode: %v", err)
	}
	again, m, err := decodeRecord(frame)
	if err != nil {
		t.Fatalf("re-encoded record does not decode: %v", err)
	}
	if m != int64(len(frame)) {
		t.Fatalf("re-encoded frame is %d bytes, decoder consumed %d", len(frame), m)
	}
	frame2, err := encodeRecord(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, frame2) {
		t.Fatalf("record does not round-trip: seq %d", rec.Seq)
	}
}
