package tledger

import (
	"errors"
	"fmt"
	"testing"

	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/tsa"
)

// env wires a T-Ledger with a controllable logical clock and one TSA.
type env struct {
	clock *logicalclock.Clock
	tsa   *tsa.Authority
	tl    *TLedger
}

func newEnv(t *testing.T, tolerance int64) *env {
	t.Helper()
	e := &env{clock: logicalclock.New(1000)}
	e.tsa = tsa.New("test", tsa.Options{Clock: e.clock.Now})
	tl, err := New(Config{
		Name:      "test",
		Clock:     e.clock.Now,
		Tolerance: tolerance,
		TSA:       tsa.NewPool(e.tsa),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.tl = tl
	return e
}

func dig(s string) hashutil.Digest { return hashutil.Leaf([]byte(s)) }

func TestSubmitWithinTolerance(t *testing.T) {
	e := newEnv(t, 10)
	entry, ta, err := e.tl.Submit("ledger://a", dig("r1"), e.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	if entry.Seq != 0 || entry.NotaryTime != 1000 {
		t.Fatalf("entry: %+v", entry)
	}
	if err := ta.Verify(); err != nil {
		t.Fatalf("notary attestation: %v", err)
	}
	if ta.TSAPK != e.tl.Public() {
		t.Fatal("attestation not signed by the T-Ledger")
	}
	if e.tl.Size() != 1 {
		t.Fatalf("Size = %d", e.tl.Size())
	}
}

func TestSubmitRejectsStale(t *testing.T) {
	// Protocol 4: τ_t >= τ_c + τ_Δ must be rejected — the delayed-anchor
	// attack of Figure 5(a) dies here.
	e := newEnv(t, 10)
	claimed := e.clock.Now()
	e.clock.Advance(10)
	_, _, err := e.tl.Submit("ledger://a", dig("r"), claimed)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
	// Just inside the window is accepted.
	claimed2 := e.clock.Now() - 9
	if _, _, err := e.tl.Submit("ledger://a", dig("r"), claimed2); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitRejectsFuture(t *testing.T) {
	e := newEnv(t, 10)
	_, _, err := e.tl.Submit("ledger://a", dig("r"), e.clock.Now()+11)
	if !errors.Is(err, ErrFuture) {
		t.Fatalf("err = %v, want ErrFuture", err)
	}
}

func TestFinalizeAndProveTime(t *testing.T) {
	e := newEnv(t, 10)
	if _, err := e.tl.Finalize(); err != nil { // window opener at t=1000
		t.Fatal(err)
	}
	e.clock.Advance(5)
	entry, _, err := e.tl.Submit("ledger://a", dig("r1"), e.clock.Now())
	if err != nil {
		t.Fatal(err)
	}
	// Not yet finalized: no proof.
	if _, err := e.tl.ProveTime(entry.Seq); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	e.clock.Advance(5)
	if _, err := e.tl.Finalize(); err != nil {
		t.Fatal(err)
	}
	proof, err := e.tl.ProveTime(entry.Seq)
	if err != nil {
		t.Fatal(err)
	}
	nb, na, err := VerifyTimeProof(proof, []sig.PublicKey{e.tsa.Public()})
	if err != nil {
		t.Fatalf("VerifyTimeProof: %v", err)
	}
	if nb != 1000 || na != 1010 {
		t.Fatalf("bounds = (%d, %d], want (1000, 1010]", nb, na)
	}
}

func TestVerifyTimeProofRejectsUntrustedTSA(t *testing.T) {
	e := newEnv(t, 10)
	e.tl.Finalize()
	entry, _, _ := e.tl.Submit("ledger://a", dig("r"), e.clock.Now())
	e.clock.Advance(1)
	e.tl.Finalize()
	proof, _ := e.tl.ProveTime(entry.Seq)
	other := sig.GenerateDeterministic("other").Public()
	if _, _, err := VerifyTimeProof(proof, []sig.PublicKey{other}); !errors.Is(err, ErrVerify) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyTimeProofDetectsTampering(t *testing.T) {
	e := newEnv(t, 10)
	e.tl.Finalize()
	entry, _, _ := e.tl.Submit("ledger://a", dig("r"), e.clock.Now())
	e.clock.Advance(1)
	e.tl.Finalize()
	proof, _ := e.tl.ProveTime(entry.Seq)
	trusted := []sig.PublicKey{e.tsa.Public()}

	// Tampered entry content (the adversary rewrites the digest).
	bad := *proof
	badEntry := *proof.Entry
	badEntry.Digest = dig("forged")
	bad.Entry = &badEntry
	if _, _, err := VerifyTimeProof(&bad, trusted); err == nil {
		t.Fatal("tampered entry accepted")
	}
	// Tampered claimed notary time.
	bad2 := *proof
	badEntry2 := *proof.Entry
	badEntry2.NotaryTime -= 500 // pretend it was accepted earlier
	bad2.Entry = &badEntry2
	if _, _, err := VerifyTimeProof(&bad2, trusted); err == nil {
		t.Fatal("backdated notary time accepted")
	}
	// Swapped covering finalization.
	bad3 := *proof
	badFinal := *proof.Covering
	badFinal.Root = dig("other-root")
	bad3.Covering = &badFinal
	if _, _, err := VerifyTimeProof(&bad3, trusted); err == nil {
		t.Fatal("wrong finalization accepted")
	}
}

func TestManyEntriesManyWindows(t *testing.T) {
	e := newEnv(t, 100)
	const deltaTau = 10
	var seqs []uint64
	e.tl.Finalize()
	for w := 0; w < 5; w++ {
		for i := 0; i < 7; i++ {
			entry, _, err := e.tl.Submit("ledger://a", dig(fmt.Sprintf("w%d-i%d", w, i)), e.clock.Now())
			if err != nil {
				t.Fatal(err)
			}
			seqs = append(seqs, entry.Seq)
			e.clock.Advance(1)
		}
		e.clock.Advance(deltaTau - 7)
		if _, err := e.tl.Finalize(); err != nil {
			t.Fatal(err)
		}
	}
	if e.tl.Finalizations() != 6 {
		t.Fatalf("finalizations = %d", e.tl.Finalizations())
	}
	trusted := []sig.PublicKey{e.tsa.Public()}
	for _, seq := range seqs {
		proof, err := e.tl.ProveTime(seq)
		if err != nil {
			t.Fatalf("ProveTime(%d): %v", seq, err)
		}
		nb, na, err := VerifyTimeProof(proof, trusted)
		if err != nil {
			t.Fatalf("VerifyTimeProof(%d): %v", seq, err)
		}
		// Each entry's window spans at most 2·Δτ (adjacent finalizations
		// Δτ apart; the entry fell strictly inside one window).
		if na-nb > 2*deltaTau {
			t.Fatalf("entry %d window %d exceeds 2Δτ=%d", seq, na-nb, 2*deltaTau)
		}
		// Ground truth lies inside the proven bounds (an entry accepted
		// at the same logical instant as a finalization ties at nb).
		if entryTime := proof.Entry.NotaryTime; entryTime < nb || entryTime > na {
			t.Fatalf("entry %d notary time %d outside (%d, %d]", seq, entryTime, nb, na)
		}
	}
}

func TestEntryBySubmission(t *testing.T) {
	e := newEnv(t, 10)
	d := dig("root")
	e.tl.Submit("ledger://a", d, e.clock.Now())
	entry, err := e.tl.EntryBySubmission("ledger://a", d)
	if err != nil {
		t.Fatal(err)
	}
	if entry.Seq != 0 {
		t.Fatalf("seq = %d", entry.Seq)
	}
	if _, err := e.tl.EntryBySubmission("ledger://b", d); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicViewVerifies(t *testing.T) {
	e := newEnv(t, 100)
	e.tl.Finalize()
	for w := 0; w < 3; w++ {
		for i := 0; i < 4; i++ {
			if _, _, err := e.tl.Submit("ledger://a", dig(fmt.Sprintf("%d-%d", w, i)), e.clock.Now()); err != nil {
				t.Fatal(err)
			}
			e.clock.Advance(2)
		}
		if _, err := e.tl.Finalize(); err != nil {
			t.Fatal(err)
		}
	}
	view := e.tl.Export()
	trusted := []sig.PublicKey{e.tsa.Public()}
	if err := VerifyPublicView(view, trusted, 100); err != nil {
		t.Fatalf("VerifyPublicView: %v", err)
	}
	// A rewritten entry breaks the rebuilt roots.
	bad := *view
	bad.Entries = append([]*Entry(nil), view.Entries...)
	forged := *view.Entries[5]
	forged.Digest = dig("forged")
	bad.Entries[5] = &forged
	if err := VerifyPublicView(&bad, trusted, 100); err == nil {
		t.Fatal("rewritten entry accepted")
	}
	// A backdated entry violates Protocol 4 in the public record.
	bad2 := *view
	bad2.Entries = append([]*Entry(nil), view.Entries...)
	late := *view.Entries[3]
	late.ClientTime = late.NotaryTime - 200 // claims to be older than τ_Δ allows
	bad2.Entries[3] = &late
	if err := VerifyPublicView(&bad2, trusted, 100); err == nil {
		t.Fatal("protocol-4-violating entry accepted")
	}
	// An untrusted TSA fails.
	if err := VerifyPublicView(view, nil, 100); err == nil {
		t.Fatal("untrusted attestations accepted")
	}
	// A dropped finalization breaks index continuity.
	bad3 := *view
	bad3.Finals = view.Finals[1:]
	if err := VerifyPublicView(&bad3, trusted, 100); err == nil {
		t.Fatal("dropped finalization accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	pool := tsa.NewPool(tsa.New("x", tsa.Options{Clock: func() int64 { return 0 }}))
	cases := []Config{
		{Tolerance: 1, TSA: pool},                        // nil clock
		{Clock: func() int64 { return 0 }, TSA: pool},    // no tolerance
		{Clock: func() int64 { return 0 }, Tolerance: 1}, // nil TSA
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}
