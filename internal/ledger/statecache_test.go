package ledger

import (
	"errors"
	"fmt"
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
// regression: after every kind of mutation State re-signs a state
// reflecting the new roots, and every proof made after the mutation —
// which may fold to a state signed before it — still verifies and
// covers its jsn.
func TestStateCacheInvalidatesOnMutations(t *testing.T) {
	e := newEnv(t, nil)
	for i := 0; i < 6; i++ {
		e.append(t, "doc", "K")
	}

	prove := func(step string, jsn uint64) *ExistenceProof {
		t.Helper()
		p, err := e.ledger.ProveExistence(jsn, true)
		if err != nil {
			t.Fatalf("%s: prove %d: %v", step, jsn, err)
		}
		if _, err := VerifyExistence(p, e.lsp.Public()); err != nil {
			t.Fatalf("%s: stale or wrong state in proof for %d: %v", step, jsn, err)
		}
		if p.State.JSN <= jsn {
			t.Fatalf("%s: proof state covers %d journals, jsn is %d", step, p.State.JSN, jsn)
		}
		return p
	}
	// live checks that State was re-signed since prev for the ledger as
	// it stands.
	live := func(step string, prev *SignedState) *SignedState {
		t.Helper()
		st, err := e.ledger.State()
		if err != nil {
			t.Fatalf("%s: state: %v", step, err)
		}
		if st == prev {
			t.Fatalf("%s did not invalidate the cached state", step)
		}
		if st.JSN != e.ledger.Size() {
			t.Fatalf("%s: state covers %d journals, ledger has %d", step, st.JSN, e.ledger.Size())
		}
		if err := st.Verify(e.lsp.Public()); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		return st
	}

	prove("baseline", 3)
	before := live("baseline", nil)

	// Append: new journal, new root.
	r := e.append(t, "appended", "K")
	prove("append", 3)
	prove("append", r.JSN)
	st := live("append", before)
	if st.JournalRoot == before.JournalRoot {
		t.Fatal("append did not move the journal root")
	}

	// Manual block cut: bumps the generation (header roots are now
	// final); the next State re-signs. One more append first so the cut
	// has pending journals to seal.
	e.append(t, "pending")
	prove("pre-cut", r.JSN)
	st = live("pre-cut", st)
	if _, err := e.ledger.CutBlock(); err != nil {
		t.Fatal(err)
	}
	prove("cut", r.JSN)
	stCut := live("cut", st)
	if stCut.Timestamp <= st.Timestamp {
		t.Fatal("block cut did not re-sign the state")
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
	prove("occult", r.JSN)
	// The occulted journal itself still proves, digest-only, both
	// against the state signed before the occult and the live one.
	if p := prove("occult", 2); p.Payload != nil {
		t.Fatal("occulted journal shipped a payload")
	}
	stOcc := live("occult", stCut)
	if stOcc.JournalRoot == stCut.JournalRoot {
		t.Fatal("occult did not move the journal root")
	}
	if p := prove("occult", 2); p.Payload != nil {
		t.Fatal("occulted journal shipped a payload")
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
	prove("purge", r.JSN)
	for _, jsn := range []uint64{0, 1} {
		if _, err := e.ledger.ProveExistence(jsn, true); !errors.Is(err, ErrPurged) {
			t.Fatalf("purge: prove %d below the base: %v, want ErrPurged", jsn, err)
		}
	}
	stPurge := live("purge", stOcc)
	if stPurge.JournalRoot == stOcc.JournalRoot {
		t.Fatal("purge did not move the journal root")
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

// TestProofsReuseCoveringState: an unanchored existence proof folds to
// the newest signed state that covers its jsn, whatever mutations came
// after it, and the primary signs afresh only for a jsn no signed state
// covers. The test clock ticks on every sign, so a re-sign would show
// as a new object with a later timestamp.
func TestProofsReuseCoveringState(t *testing.T) {
	for _, erase := range []bool{false, true} {
		t.Run(fmt.Sprintf("EraseFamNodes=%v", erase), func(t *testing.T) {
			e := newEnv(t, nil)
			// δ=3: epoch 0 holds journals 0-7, so a purge at 20 with
			// EraseFamNodes releases sealed fam epochs.
			for i := 0; i < 30; i++ {
				e.append(t, fmt.Sprintf("doc-%d", i), "K")
			}
			st, err := e.ledger.State()
			if err != nil {
				t.Fatal(err)
			}
			proveAt := func(step string, jsn uint64, want *SignedState) {
				t.Helper()
				p, err := e.ledger.ProveExistence(jsn, true)
				if err != nil {
					t.Fatalf("%s: prove %d: %v", step, jsn, err)
				}
				if p.State != want {
					t.Fatalf("%s: proof for %d anchored to state at %d (ts %d), want the one at %d (ts %d)",
						step, jsn, p.State.JSN, p.State.Timestamp, want.JSN, want.Timestamp)
				}
				if _, err := VerifyExistence(p, e.lsp.Public()); err != nil {
					t.Fatalf("%s: prove %d: %v", step, jsn, err)
				}
			}
			for _, jsn := range []uint64{0, 7, 29} {
				proveAt("covered", jsn, st)
			}
			b, err := e.ledger.ProveExistenceBatch([]uint64{3, 17, 29}, false)
			if err != nil {
				t.Fatal(err)
			}
			if b.State != st {
				t.Fatal("covered batch re-signed the state")
			}

			// An uncovered jsn signs once; the new state then covers the
			// appends before it and is the one State returns.
			var late []uint64
			for i := 0; i < 3; i++ {
				late = append(late, e.append(t, fmt.Sprintf("late-%d", i), "K").JSN)
			}
			p, err := e.ledger.ProveExistence(late[0], false)
			if err != nil {
				t.Fatal(err)
			}
			fresh := p.State
			if fresh == st || fresh.JSN != e.ledger.Size() || fresh.Timestamp <= st.Timestamp {
				t.Fatalf("uncovered jsn: state at %d (ts %d), want a fresh one at %d", fresh.JSN, fresh.Timestamp, e.ledger.Size())
			}
			for _, jsn := range append(late, 5) {
				proveAt("after sign", jsn, fresh)
			}
			if live, err := e.ledger.State(); err != nil || live != fresh {
				t.Fatalf("State after the proof re-signed: %v", err)
			}

			// Occult and purge move the live roots; proofs for covered
			// jsns keep folding to the state signed before them.
			odesc := &OccultDescriptor{URI: "ledger://test", JSN: 24}
			oms := sig.NewMultiSig(odesc.Digest())
			if err := oms.SignWith(e.dba); err != nil {
				t.Fatal(err)
			}
			if _, err := e.ledger.Occult(odesc, oms); err != nil {
				t.Fatal(err)
			}
			proveAt("occult", 24, fresh)
			proveAt("occult", 25, fresh)
			pdesc := &PurgeDescriptor{URI: "ledger://test", Point: 20, ErasePayloads: true, EraseFamNodes: erase}
			pms := sig.NewMultiSig(pdesc.Digest())
			for _, kp := range []*sig.KeyPair{e.dba, e.client} {
				if err := pms.SignWith(kp); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.ledger.Purge(pdesc, pms); err != nil {
				t.Fatal(err)
			}
			for jsn := uint64(20); jsn < fresh.JSN; jsn++ {
				proveAt("purge", jsn, fresh)
			}
			if _, err := e.ledger.ProveExistence(19, false); !errors.Is(err, ErrPurged) {
				t.Fatalf("prove below the base: %v, want ErrPurged", err)
			}
		})
	}

	// A follower has no state of its own to sign: past its checkpoint it
	// still refuses.
	e := newEnv(t, nil)
	for i := 0; i < 6; i++ {
		e.append(t, fmt.Sprintf("doc-%d", i), "K")
	}
	f := newFollower(t, e)
	pump(t, e.ledger, f)
	ckpt, err := f.State()
	if err != nil {
		t.Fatal(err)
	}
	e.append(t, "past-checkpoint")
	_, fjLen, _ := f.StreamFrontier(StreamJournals)
	recs, _, _, err := e.ledger.ReadStreamRange(StreamJournals, fjLen, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ApplyReplicatedJournals(fjLen, recs, false); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ProveExistence(ckpt.JSN, false); !errors.Is(err, ErrStaleCheckpoint) {
		t.Fatalf("follower past its checkpoint: %v, want ErrStaleCheckpoint", err)
	}
	if p, err := f.ProveExistence(ckpt.JSN-1, false); err != nil || p.State != ckpt {
		t.Fatalf("follower covered proof: %v", err)
	}
}
