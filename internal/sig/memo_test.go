package sig

import (
	"errors"
	"sync"
	"testing"

	"ledgerdb/internal/hashutil"
)

// TestVerifyMemoNeedsExactTriple: once a triple has verified, a call
// that differs from it in the signature, the digest or the key is
// checked afresh and fails.
func TestVerifyMemoNeedsExactTriple(t *testing.T) {
	var m VerifyMemo
	kp := GenerateDeterministic("memo")
	d := hashutil.Leaf([]byte("state"))
	sg := kp.MustSign(d)
	for i := 0; i < 2; i++ {
		if err := m.Verify(kp.Public(), d, sg); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}

	badSig := sg
	badSig[40] ^= 0x01
	if err := m.Verify(kp.Public(), d, badSig); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("flipped signature: %v, want ErrBadSignature", err)
	}
	badDigest := d
	badDigest[31] ^= 0x01
	if err := m.Verify(kp.Public(), badDigest, sg); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("flipped digest: %v, want ErrBadSignature", err)
	}
	other := GenerateDeterministic("memo-other").Public()
	if err := m.Verify(other, d, sg); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("other key: %v, want ErrBadSignature", err)
	}
	// A flipped key byte leaves the curve, which Verify reports as a
	// malformed key.
	badKey := kp.Public()
	badKey[10] ^= 0x01
	if err := m.Verify(badKey, d, sg); !errors.Is(err, ErrBadKey) {
		t.Fatalf("flipped key: %v, want ErrBadKey", err)
	}
	// The genuine triple still hits after the failures.
	if err := m.Verify(kp.Public(), d, sg); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyMemoRecordsOnlySuccess: a triple that failed is checked
// again, and fails again, on every call; the empty table never answers
// for the all-zero triple.
func TestVerifyMemoRecordsOnlySuccess(t *testing.T) {
	var m VerifyMemo
	kp := GenerateDeterministic("memo")
	d := hashutil.Leaf([]byte("state"))
	forged := kp.MustSign(hashutil.Leaf([]byte("other state")))
	for i := 0; i < 3; i++ {
		if err := m.Verify(kp.Public(), d, forged); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("call %d: forged signature: %v, want ErrBadSignature", i, err)
		}
	}
	for i, e := range m.slots {
		if e.ok {
			t.Fatalf("slot %d holds a triple that never verified", i)
		}
	}
	if err := m.Verify(PublicKey{}, hashutil.Digest{}, Signature{}); err == nil {
		t.Fatal("all-zero triple accepted")
	}
}

// TestVerifyMemoConcurrent runs hits, misses and failures from several
// goroutines at once; run it under -race.
func TestVerifyMemoConcurrent(t *testing.T) {
	var m VerifyMemo
	kp := GenerateDeterministic("memo")
	const n = 4
	ds := make([]hashutil.Digest, n)
	sgs := make([]Signature, n)
	for i := range ds {
		ds[i] = hashutil.Leaf([]byte{byte(i)})
		sgs[i] = kp.MustSign(ds[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*n; i++ {
				j := (g + i) % n
				if err := m.Verify(kp.Public(), ds[j], sgs[j]); err != nil {
					t.Errorf("goroutine %d: triple %d: %v", g, j, err)
				}
				if err := m.Verify(kp.Public(), ds[j], sgs[(j+1)%n]); err == nil {
					t.Errorf("goroutine %d: mismatched triple %d accepted", g, j)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestVerifyMemoHitDoesNotAllocate: a hit is a table lookup, with no
// big.Int or ecdsa key built.
func TestVerifyMemoHitDoesNotAllocate(t *testing.T) {
	var m VerifyMemo
	kp := GenerateDeterministic("memo")
	d := hashutil.Leaf([]byte("state"))
	sg := kp.MustSign(d)
	if err := m.Verify(kp.Public(), d, sg); err != nil {
		t.Fatal(err)
	}
	pk := kp.Public()
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.Verify(pk, d, sg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("memo hit: %.1f allocs/op, want 0", allocs)
	}
}
