package ledger

import (
	"testing"

	"ledgerdb/internal/sig"
)

// TestStateCacheSharesSignature: within one commit generation every
// State call returns the same cached object — one signature total. The
// test clock ticks on every read, so a fresh sign would be visible as a
// moving Timestamp.
func TestStateCacheSharesSignature(t *testing.T) {
	e := newEnv(t, nil)
	e.append(t, "doc-1")
	st1, err := e.ledger.State()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		st, err := e.ledger.State()
		if err != nil {
			t.Fatal(err)
		}
		if st != st1 {
			t.Fatalf("read %d re-signed the state (timestamp %d vs %d)", i, st.Timestamp, st1.Timestamp)
		}
	}
	if err := st1.Verify(e.lsp.Public()); err != nil {
		t.Fatal(err)
	}
}

// TestStateCacheInvalidatesOnMutations is the tamper-then-prove
// regression: after every kind of mutation the very next proof must be
// built against a freshly signed state reflecting the new roots — a
// stale cached state would make the live fam path fail verification.
func TestStateCacheInvalidatesOnMutations(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 6; i++ {
		e.append(t, "doc", "K")
	}

	proveLive := func(step string, jsn uint64) *SignedState {
		t.Helper()
		p, err := e.ledger.ProveExistence(jsn, true)
		if err != nil {
			t.Fatalf("%s: prove %d: %v", step, jsn, err)
		}
		if _, err := VerifyExistence(p, e.lsp.Public()); err != nil {
			t.Fatalf("%s: stale or wrong state in proof for %d: %v", step, jsn, err)
		}
		if p.State.JSN != e.ledger.Size() {
			t.Fatalf("%s: proof state covers %d journals, ledger has %d", step, p.State.JSN, e.ledger.Size())
		}
		return p.State
	}

	before := proveLive("baseline", 3)

	// Append: new journal, new root.
	r := e.append(t, "appended", "K")
	st := proveLive("append", r.JSN)
	if st == before || st.JournalRoot == before.JournalRoot {
		t.Fatal("append did not invalidate the cached state")
	}

	// Manual block cut: bumps the generation (header roots are now
	// final); the next proof re-signs. One more append first so the cut
	// has pending journals to seal.
	e.append(t, "pending")
	st = proveLive("pre-cut", r.JSN)
	if _, err := e.ledger.CutBlock(); err != nil {
		t.Fatal(err)
	}
	stCut := proveLive("cut", r.JSN)
	if stCut == st {
		t.Fatal("block cut did not invalidate the cached state")
	}

	// Occult: appends an occult journal and flips the bitmap.
	odesc := &OccultDescriptor{URI: "ledger://test", JSN: 2}
	oms := sig.NewMultiSig(odesc.Digest())
	if err := oms.SignWith(e.dba); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ledger.Occult(odesc, oms); err != nil {
		t.Fatal(err)
	}
	stOcc := proveLive("occult", r.JSN)
	if stOcc == stCut || stOcc.JSN != e.ledger.Size() {
		t.Fatal("occult did not invalidate the cached state")
	}
	// The occulted journal itself still proves, digest-only.
	p, err := e.ledger.ProveExistence(2, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.Payload != nil {
		t.Fatal("occulted journal shipped a payload")
	}
	if _, err := VerifyExistence(p, e.lsp.Public()); err != nil {
		t.Fatal(err)
	}

	// Purge: truncates the prefix behind a pseudo genesis.
	pdesc := &PurgeDescriptor{URI: "ledger://test", Point: 2, ErasePayloads: true}
	pms := sig.NewMultiSig(pdesc.Digest())
	for _, kp := range []*sig.KeyPair{e.dba, e.client} {
		if err := pms.SignWith(kp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.ledger.Purge(pdesc, pms); err != nil {
		t.Fatal(err)
	}
	stPurge := proveLive("purge", r.JSN)
	if stPurge == stOcc || stPurge.JSN != e.ledger.Size() {
		t.Fatal("purge did not invalidate the cached state")
	}

	// Reorganize: erases queued payloads; roots do not move, but the
	// generation does (ticking clock ⇒ a fresh signature is visible as
	// a newer timestamp).
	if _, err := e.ledger.Reorganize(); err != nil {
		t.Fatal(err)
	}
	stReorg, err := e.ledger.State()
	if err != nil {
		t.Fatal(err)
	}
	if stReorg == stPurge || stReorg.Timestamp <= stPurge.Timestamp {
		t.Fatal("reorganize did not invalidate the cached state")
	}
}
