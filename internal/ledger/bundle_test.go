package ledger

import (
	"errors"
	"fmt"
	"testing"

	"ledgerdb/internal/sig"
	"ledgerdb/internal/tsa"
)

func TestBundleExportVerify(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 5; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), "K")
	}
	// Two-way pegging: attach a TSA attestation so bundles carry a
	// when-chain.
	authority := tsa.New("a", tsa.Options{Clock: e.cfg.Clock})
	if _, err := e.ledger.AnchorTimeWith(authority.Stamp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		e.append(t, fmt.Sprintf("late-%d", i))
	}

	b, err := e.ledger.ExportBundle(3, true)
	if err != nil {
		t.Fatal(err)
	}
	if b.TimeRecordBytes == nil {
		t.Fatal("bundle has no when-chain despite an anchored time journal")
	}
	// Offline verification: bytes + pinned keys, nothing else.
	rec, ta, err := VerifyBundle(b, e.lsp.Public(), []sig.PublicKey{authority.Public()})
	if err != nil {
		t.Fatalf("VerifyBundle: %v", err)
	}
	if rec.JSN != 3 {
		t.Fatalf("bundle proves jsn %d, want 3", rec.JSN)
	}
	if ta == nil || ta.Timestamp == 0 {
		t.Fatal("no verified attestation returned")
	}
	if string(b.Payload) != "doc-2" {
		t.Fatalf("payload %q", b.Payload)
	}

	// Round-trip through the codec.
	raw := b.EncodeBytes()
	b2, err := DecodeProofBundle(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifyBundle(b2, e.lsp.Public(), []sig.PublicKey{authority.Public()}); err != nil {
		t.Fatalf("decoded bundle: %v", err)
	}
	// Encode fixpoint: decode(encode(b)) re-encodes to identical bytes.
	if string(b2.EncodeBytes()) != string(raw) {
		t.Fatal("bundle encode is not a fixpoint across decode")
	}

	// A record with no later time journal still proves existence.
	nb, err := e.ledger.ExportBundle(7, false)
	if err != nil {
		t.Fatal(err)
	}
	if nb.TimeRecordBytes != nil {
		t.Fatal("jsn 7 postdates the time journal but got a when-chain")
	}
	if _, ta, err := VerifyBundle(nb, e.lsp.Public(), nil); err != nil || ta != nil {
		t.Fatalf("chainless bundle: rec err %v, ta %v", err, ta)
	}
}

func TestBundleTamperRejected(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 4; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i))
	}
	authority := tsa.New("a", tsa.Options{Clock: e.cfg.Clock})
	if _, err := e.ledger.AnchorTimeWith(authority.Stamp); err != nil {
		t.Fatal(err)
	}
	fresh := func() *ProofBundle {
		b, err := e.ledger.ExportBundle(2, true)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Wrong LSP key.
	if _, _, err := VerifyBundle(fresh(), sig.GenerateDeterministic("other").Public(), nil); err == nil {
		t.Fatal("bundle verified under the wrong LSP key")
	}
	// Unpinned TSA.
	if _, _, err := VerifyBundle(fresh(), e.lsp.Public(), []sig.PublicKey{sig.GenerateDeterministic("x").Public()}); !errors.Is(err, ErrVerify) {
		t.Fatal("bundle verified under an unpinned TSA key")
	}
	// Tampered payload.
	b := fresh()
	b.Payload = []byte("doc-9")
	if _, _, err := VerifyBundle(b, e.lsp.Public(), nil); !errors.Is(err, ErrVerify) {
		t.Fatalf("tampered payload: %v", err)
	}
	// Record swapped for another committed record (fam fold must fail).
	b = fresh()
	other, err := e.ledger.ExportBundle(1, false)
	if err != nil {
		t.Fatal(err)
	}
	b.RecordBytes = other.RecordBytes
	if _, _, err := VerifyBundle(b, e.lsp.Public(), nil); !errors.Is(err, ErrVerify) {
		t.Fatalf("swapped record: %v", err)
	}
	// Severed when-chain halves.
	b = fresh()
	b.TimeProof = nil
	if _, _, err := VerifyBundle(b, e.lsp.Public(), nil); !errors.Is(err, ErrVerify) {
		t.Fatalf("half a time chain: %v", err)
	}
	b = fresh()
	b.TimeRecordBytes = nil
	if _, _, err := VerifyBundle(b, e.lsp.Public(), nil); !errors.Is(err, ErrVerify) {
		t.Fatalf("time proofs without journal: %v", err)
	}
}

// TestBundleWhenChainPastCoveringState: a primary bundle anchors to the
// live state, not to an older signed state that covers the record, so a
// time journal committed after that state still makes the when-chain.
func TestBundleWhenChainPastCoveringState(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 5; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), "K")
	}
	older, err := e.ledger.State()
	if err != nil {
		t.Fatal(err)
	}
	authority := tsa.New("a", tsa.Options{Clock: e.cfg.Clock})
	tr, err := e.ledger.AnchorTimeWith(authority.Stamp)
	if err != nil {
		t.Fatal(err)
	}
	if tr.JSN < older.JSN {
		t.Fatalf("time journal %d inside the older state at %d", tr.JSN, older.JSN)
	}
	b, err := e.ledger.ExportBundle(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if b.State.JSN <= tr.JSN || b.TimeRecordBytes == nil {
		t.Fatalf("bundle anchored at %d has no when-chain for the time journal at %d", b.State.JSN, tr.JSN)
	}
	if _, ta, err := VerifyBundle(b, e.lsp.Public(), []sig.PublicKey{authority.Public()}); err != nil || ta == nil {
		t.Fatalf("VerifyBundle: %v, attestation %v", err, ta)
	}
}

// TestBundleFromFollower exports a bundle from a replica: it anchors to
// the primary-signed checkpoint and verifies offline against the same
// pinned key — the degraded-read topology's escape hatch, proofs that
// outlive both the partition and the ledger service.
func TestBundleFromFollower(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 4; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), "K")
	}
	authority := tsa.New("a", tsa.Options{Clock: e.cfg.Clock})
	if _, err := e.ledger.AnchorTimeWith(authority.Stamp); err != nil {
		t.Fatal(err)
	}
	e.append(t, "after-anchor")
	f := newFollower(t, e)
	pump(t, e.ledger, f)

	b, err := f.ExportBundle(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if b.TimeRecordBytes == nil {
		t.Fatal("follower bundle missing when-chain")
	}
	rec, ta, err := VerifyBundle(b, e.lsp.Public(), []sig.PublicKey{authority.Public()})
	if err != nil {
		t.Fatalf("follower bundle: %v", err)
	}
	if rec.JSN != 2 || ta == nil {
		t.Fatalf("follower bundle proves jsn %d, ta %v", rec.JSN, ta)
	}
	// No payload blobs replicate to followers: digest-only export.
	if b.Payload != nil {
		t.Fatal("follower shipped a payload it cannot hold")
	}
}

// buildBundleSeed builds a valid with-when-chain bundle encoding for the
// fuzz seed corpus (also used by TestRegenFuzzCorpus).
func buildBundleSeed(tb testing.TB) []byte {
	tb.Helper()
	e := newEnv(tb, nil)
	for i := 0; i < 3; i++ {
		e.append(tb, fmt.Sprintf("doc-%d", i), "K")
	}
	authority := tsa.New("a", tsa.Options{Clock: e.cfg.Clock})
	if _, err := e.ledger.AnchorTimeWith(authority.Stamp); err != nil {
		tb.Fatal(err)
	}
	b, err := e.ledger.ExportBundle(1, true)
	if err != nil {
		tb.Fatal(err)
	}
	return b.EncodeBytes()
}

func FuzzDecodeProofBundle(f *testing.F) {
	f.Add(buildBundleSeed(f))
	f.Add([]byte("ledgerdb/bundle/v1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := DecodeProofBundle(raw)
		if err != nil {
			return
		}
		// Same invariant as the fuzz_test.go targets: no panic, and any
		// accepted input has a stable re-encoding.
		enc := b.EncodeBytes()
		b2, err := DecodeProofBundle(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted bundle failed: %v", err)
		}
		if string(b2.EncodeBytes()) != string(enc) {
			t.Fatal("proof bundle encoding is not a fixpoint")
		}
	})
}
