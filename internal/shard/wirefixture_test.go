package shard

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ledgerdb/internal/sig"
)

// TestGlobalProofFixtureStable pins the global proof wire format. The
// fixture was encoded before the record-proof codec was shared with the
// ledger's proof containers, from a newTopology(3) deployment (30
// appends over 7 clues, one fold) proving shard 1, jsn 4. It must still
// decode, verify under the coordinator key, prove the same record, and
// re-encode to the exact bytes on disk.
func TestGlobalProofFixtureStable(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "wire", "global.bin"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodeGlobalProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := VerifyGlobal(p, sig.GenerateDeterministic("shard-coord").Public())
	if err != nil {
		t.Fatal(err)
	}
	if p.Head.Shard != 1 || rec.JSN != 4 || string(p.Record.Payload) != "doc-7" {
		t.Fatalf("fixture proves shard %d jsn %d payload %q", p.Head.Shard, rec.JSN, p.Record.Payload)
	}
	if !bytes.Equal(p.EncodeBytes(), raw) {
		t.Fatal("re-encoding differs from the fixture bytes")
	}
}
