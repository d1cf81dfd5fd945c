package sig

import (
	"sync"

	"ledgerdb/internal/hashutil"
)

// memoSlots is the number of verified triples a VerifyMemo keeps. A
// verifier re-checks a handful of live signed states at a time (one per
// ledger it reads, plus the few a writer races past), so a small table
// covers it; a collision only costs one more ECDSA verify.
const memoSlots = 64

// memoEntry is one verified (key, digest, signature) triple. ok tells a
// filled slot from the zero value, so an all-zero triple never hits.
type memoEntry struct {
	pk PublicKey
	d  hashutil.Digest
	sg Signature
	ok bool
}

// VerifyMemo is Verify for a caller that checks the same signed datum
// many times, such as a client reading many proofs against one signed
// ledger state. It remembers triples that have verified: a later call
// with the same key, digest and signature, byte for byte, returns nil
// without the ECDSA verify. Only a successful verify is recorded, so a
// hit proves exactly what that verify proved, and a triple that differs
// in any byte falls through to Verify. The table is direct-mapped on
// the digest, fixed in size, and safe for concurrent use; the zero
// value is ready to use.
type VerifyMemo struct {
	mu    sync.Mutex
	slots [memoSlots]memoEntry
}

// Verify checks sg over digest against pk, answering from the table
// when the exact triple has verified before.
func (m *VerifyMemo) Verify(pk PublicKey, digest hashutil.Digest, sg Signature) error {
	e := memoEntry{pk: pk, d: digest, sg: sg, ok: true}
	slot := &m.slots[int(digest[0])%memoSlots]
	m.mu.Lock()
	hit := *slot == e
	m.mu.Unlock()
	if hit {
		return nil
	}
	if err := Verify(pk, digest, sg); err != nil {
		return err
	}
	m.mu.Lock()
	*slot = e
	m.mu.Unlock()
	return nil
}
