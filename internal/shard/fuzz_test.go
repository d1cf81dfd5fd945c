package shard

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeGlobalProof: the cross-shard proof decoder never panics,
// and any input it accepts has a stable re-encoding. The record half
// is the ledger's shared record-proof codec; the head, accumulator path
// and global state around it take adversarial values here.
func FuzzDecodeGlobalProof(f *testing.F) {
	tp := newTopology(f, 2)
	for i := 0; i < 12; i++ {
		tp.append(f, fmt.Sprintf("clue-%d", i%3), fmt.Sprintf("doc-%d", i), uint64(i))
	}
	if _, err := tp.coord.Fold(); err != nil {
		f.Fatal(err)
	}
	p, err := tp.coord.ProveGlobal(0, 1, true)
	if err != nil {
		f.Fatal(err)
	}
	fixture, err := os.ReadFile(filepath.Join("testdata", "wire", "global.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(p.EncodeBytes())
	f.Add(fixture)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeGlobalProof(data)
		if err != nil {
			return
		}
		enc := p.EncodeBytes()
		p2, err := DecodeGlobalProof(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted proof failed: %v", err)
		}
		if !bytes.Equal(p2.EncodeBytes(), enc) {
			t.Fatal("global proof encoding is not a fixpoint")
		}
	})
}
