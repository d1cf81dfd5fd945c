package ledger

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/tsa"
)

// TestWireFixturesStable pins the proof wire formats. The files under
// testdata/wire were encoded by the per-container codecs that predate
// the shared record-proof codec, over the newEnv ledger (deterministic
// keys) with 20 appends, a TSA time anchor and 3 more appends. Receipts
// and offline bundles are meant to verify long after the code that
// made them changes, so each fixture must still decode, verify under
// the same keys, prove the same journal, and re-encode to the exact
// bytes on disk.
func TestWireFixturesStable(t *testing.T) {
	lsp := sig.GenerateDeterministic("lsp").Public()
	tsaKey := tsa.New("a", tsa.Options{}).Public()
	for _, fx := range []struct {
		file  string
		check func(t *testing.T, raw []byte) []byte
	}{
		{"existence.bin", func(t *testing.T, raw []byte) []byte {
			p, err := DecodeExistenceProof(raw)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := VerifyExistence(p, lsp)
			if err != nil {
				t.Fatal(err)
			}
			wantRecord(t, rec, 3, p.Payload, "doc-2")
			return p.EncodeBytes()
		}},
		{"batch.bin", func(t *testing.T, raw []byte) []byte {
			b, err := DecodeExistenceProofBatch(raw)
			if err != nil {
				t.Fatal(err)
			}
			recs, err := VerifyExistenceBatch(b, lsp)
			if err != nil {
				t.Fatal(err)
			}
			for i, jsn := range []uint64{1, 9, 17} {
				wantRecord(t, recs[i], jsn, b.Items[i].Payload, "") // digest-only
			}
			return b.EncodeBytes()
		}},
		{"bundle.bin", func(t *testing.T, raw []byte) []byte {
			b, err := DecodeProofBundle(raw)
			if err != nil {
				t.Fatal(err)
			}
			rec, ta, err := VerifyBundle(b, lsp, []sig.PublicKey{tsaKey})
			if err != nil {
				t.Fatal(err)
			}
			if ta == nil {
				t.Fatal("bundle fixture lost its when-chain")
			}
			wantRecord(t, rec, 5, b.Payload, "doc-4")
			return b.EncodeBytes()
		}},
	} {
		t.Run(fx.file, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", "wire", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fx.check(t, raw), raw) {
				t.Fatal("re-encoding differs from the fixture bytes")
			}
		})
	}
}

func wantRecord(t *testing.T, rec *journal.Record, jsn uint64, payload []byte, want string) {
	t.Helper()
	if rec.JSN != jsn || string(payload) != want {
		t.Fatalf("fixture proves jsn %d payload %q, want jsn %d payload %q", rec.JSN, payload, jsn, want)
	}
}
