package ledger

import (
	"fmt"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// This file implements batched existence proofs: N journals proven
// against ONE shared SignedState. The LSP signature — the dominant cost
// of a single proof — is paid once per batch (and, with the state
// cache, at most once per commit generation), while each journal keeps
// its own fam path. Client-side, VerifyExistenceBatch checks the state
// signature once and then folds every record through its path.

// MaxProofBatch bounds the journals per batched proof request, both at
// the prover (request validation) and the decoder (hostile input).
const MaxProofBatch = 1024

// ExistenceProofBatch carries N record proofs anchored to one signed
// state.
type ExistenceProofBatch struct {
	Items []RecordProof
	State *SignedState
}

// ProveExistenceBatch builds existence proofs for every jsn through the
// same prover as ProveExistence, so all fam paths and the shared signed
// state come from one read-lock section and fold to that state's
// JournalRoot.
func (l *Ledger) ProveExistenceBatch(jsns []uint64, withPayload bool) (*ExistenceProofBatch, error) {
	if len(jsns) == 0 {
		return nil, fmt.Errorf("%w: empty proof batch", journal.ErrBadRequest)
	}
	if len(jsns) > MaxProofBatch {
		return nil, fmt.Errorf("%w: proof batch of %d exceeds %d", journal.ErrBadRequest, len(jsns), MaxProofBatch)
	}
	ps, st, err := l.proveRecords(jsns, 0, nil, false, withPayload)
	if err != nil {
		return nil, err
	}
	return &ExistenceProofBatch{Items: ps, State: st}, nil
}

// VerifyExistenceBatch is the client-side check of a batched proof: one
// LSP signature verification over the shared state, then
// VerifyRecordAtRoot per journal. Returns the decoded records in batch
// order.
func VerifyExistenceBatch(b *ExistenceProofBatch, lsp sig.PublicKey) ([]*journal.Record, error) {
	if b == nil || b.State == nil {
		return nil, fmt.Errorf("%w: incomplete proof batch", ErrVerify)
	}
	if err := b.State.Verify(lsp); err != nil {
		return nil, err
	}
	recs := make([]*journal.Record, 0, len(b.Items))
	for i := range b.Items {
		rec, err := VerifyRecordAtRoot(&b.Items[i], nil, b.State.JournalRoot)
		if err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// EncodeBytes serializes a batched proof for transport.
func (b *ExistenceProofBatch) EncodeBytes() []byte {
	w := wire.NewWriter(4096)
	w.Uvarint(uint64(len(b.Items)))
	for i := range b.Items {
		EncodeRecordProof(w, &b.Items[i])
	}
	b.State.Encode(w)
	return w.Bytes()
}

// DecodeExistenceProofBatch parses a transported batched proof.
func DecodeExistenceProofBatch(raw []byte) (*ExistenceProofBatch, error) {
	r := wire.NewReader(raw)
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n == 0 || n > MaxProofBatch {
		return nil, fmt.Errorf("%w: %d proof items", ErrVerify, n)
	}
	b := &ExistenceProofBatch{Items: make([]RecordProof, n)}
	for i := range b.Items {
		rp, err := DecodeRecordProof(r)
		if err != nil {
			return nil, err
		}
		b.Items[i] = rp
	}
	st, err := DecodeSignedState(r)
	if err != nil {
		return nil, err
	}
	b.State = st
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return b, nil
}
