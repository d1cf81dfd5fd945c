package fam

import (
	"bytes"
	"errors"
	"testing"

	"ledgerdb/internal/wire"
)

// TestRootAtMatchesReplay pins the meaning of a historical root: RootAt(s)
// on the full tree must equal the live Root() of a fresh tree grown to s.
func TestRootAtMatchesReplay(t *testing.T) {
	const n = 40
	tr := build(t, 3, n)
	for s := uint64(1); s <= n; s++ {
		shadow := build(t, 3, s)
		want, err := shadow.Root()
		if err != nil {
			t.Fatal(err)
		}
		got, err := tr.RootAt(s)
		if err != nil {
			t.Fatalf("RootAt(%d): %v", s, err)
		}
		if got != want {
			t.Fatalf("RootAt(%d) = %s, want replay root %s", s, got.Short(), want.Short())
		}
	}
	if _, err := tr.RootAt(0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("RootAt(0) err = %v", err)
	}
	if _, err := tr.RootAt(n + 1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("RootAt(%d) err = %v", n+1, err)
	}
}

// TestProveAtAllPairs checks every (index, size) pair across several epoch
// boundaries: the historical proof must verify against the historical root
// with the unchanged pure verifier, exactly like a live proof.
func TestProveAtAllPairs(t *testing.T) {
	const n = 40 // δ=3: epochs of 8 then 7 journals → 5+ epochs
	tr := build(t, 3, n)
	for s := uint64(1); s <= n; s++ {
		root, err := tr.RootAt(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < s; i++ {
			p, err := tr.ProveAt(i, s)
			if err != nil {
				t.Fatalf("ProveAt(%d, %d): %v", i, s, err)
			}
			if err := Verify(leafOf(i), p, root); err != nil {
				t.Fatalf("Verify(%d at size %d): %v", i, s, err)
			}
			if s < n {
				// A historical proof must NOT verify against the live root
				// (unless the commitment happens to coincide, which these
				// distinct leaves rule out).
				live, _ := tr.Root()
				if err := Verify(leafOf(i), p, live); err == nil {
					t.Fatalf("proof at size %d verified against live root of size %d", s, n)
				}
			}
		}
	}
}

// liveProof is the live cold-proof construction, kept here as the
// reference Prove is checked against: the in-epoch path, then a
// whole-epoch hop into every later epoch up to the open one.
func liveProof(tr *Tree, index uint64) (*Proof, error) {
	e, leaf, err := tr.locate(index)
	if err != nil {
		return nil, err
	}
	p, err := tr.inEpochProof(index, e, leaf)
	if err != nil {
		return nil, err
	}
	for k := e + 1; k <= len(tr.sealed); k++ {
		hop, err := tr.hop(k)
		if err != nil {
			return nil, err
		}
		p.Hops = append(p.Hops, hop)
	}
	return p, nil
}

func encodeProof(p *Proof) []byte {
	w := wire.NewWriter(256)
	p.Encode(w)
	return w.Bytes()
}

// TestProveAtLiveEqualsProve: at the live size the historical path must
// reduce to the live cold proof byte for byte, and a tree that has since
// grown must hand out the same bytes for that past size. Proofs are
// signed over and shipped in offline bundles, so "verifies" is not
// enough: Prove, ProveAt at the live size and ProveAt at a past size
// must agree on the encoding, for δ 2–4 across several epoch seals.
func TestProveAtLiveEqualsProve(t *testing.T) {
	const n = 70
	for h := uint8(2); h <= 4; h++ {
		grown := build(t, h, n)
		for s := uint64(1); s < n; s++ {
			tr := build(t, h, s)
			for i := uint64(0); i < s; i++ {
				ref, err := liveProof(tr, i)
				if err != nil {
					t.Fatal(err)
				}
				want := encodeProof(ref)
				for name, prove := range map[string]func() (*Proof, error){
					"Prove":        func() (*Proof, error) { return tr.Prove(i) },
					"ProveAt live": func() (*Proof, error) { return tr.ProveAt(i, s) },
					"ProveAt past": func() (*Proof, error) { return grown.ProveAt(i, s) },
				} {
					p, err := prove()
					if err != nil {
						t.Fatalf("δ=%d %s(%d) at size %d: %v", h, name, i, s, err)
					}
					if !bytes.Equal(encodeProof(p), want) {
						t.Fatalf("δ=%d %s(%d) at size %d encodes differently from the live cold proof", h, name, i, s)
					}
				}
			}
		}
	}
}

func TestProveAtRejectsBadArgs(t *testing.T) {
	tr := build(t, 3, 10)
	if _, err := tr.ProveAt(0, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("size 0: %v", err)
	}
	if _, err := tr.ProveAt(0, 11); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("size beyond live: %v", err)
	}
	if _, err := tr.ProveAt(5, 5); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("index at size: %v", err)
	}
}

// TestProveAtPrunedEpoch: once an epoch's cells are released, historical
// proofs that need it fail loudly with ErrPruned.
func TestProveAtPrunedEpoch(t *testing.T) {
	tr := build(t, 3, 30)
	if n := tr.PruneEpochs(1); n != 1 {
		t.Fatalf("pruned %d epochs", n)
	}
	if _, err := tr.ProveAt(2, 20); !errors.Is(err, ErrPruned) {
		t.Fatalf("proof in pruned epoch: %v", err)
	}
	if _, err := tr.RootAt(5); !errors.Is(err, ErrPruned) {
		t.Fatalf("root inside pruned epoch: %v", err)
	}
	// Journals in retained epochs still prove at sizes past the pruned one.
	if _, err := tr.ProveAt(12, 20); err != nil {
		t.Fatalf("proof in retained epoch: %v", err)
	}
}
