package vhll

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
)

// TestRetiredEncodingRejected decodes a whole payload of the retired
// fixed encoding (magic 0xB3), exactly as its encoder wrote it, into a
// populated sketch. The decode must fail with an error naming the old
// magic and leave the sketch unchanged.
func TestRetiredEncodingRejected(t *testing.T) {
	legacy, err := hex.DecodeString("b310000000040000000500000000000000020000000500004801c000000000000000000000")
	if err != nil {
		t.Fatal(err)
	}
	sk, err := New(Params{PhysicalRegisters: 16, VirtualRegisters: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sk.Record(1, 2)
	want, err := sk.MarshalBinaryCompact()
	if err != nil {
		t.Fatal(err)
	}
	err = sk.UnmarshalBinary(legacy)
	if err == nil {
		t.Fatal("retired encoding accepted")
	}
	if !strings.Contains(err.Error(), "0xb3") {
		t.Errorf("error %q does not name the old magic 0xb3", err)
	}
	if got, _ := sk.MarshalBinaryCompact(); !bytes.Equal(got, want) {
		t.Error("rejected input changed the sketch")
	}
}
