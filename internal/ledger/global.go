package ledger

import (
	"fmt"

	"ledgerdb/internal/hashutil"
)

// This file is the engine surface the sharded topology builds on
// (internal/shard): a coordinator periodically reads each shard's fam
// head, folds the heads into a global accumulator, and signs one global
// state. Proofs against that fold need the shard to prove records at the
// *folded* size — which may trail the live edge — so ProveExistenceAt
// asks the shared prover (snapshotProofs) for that fold size instead of
// a signed state.

// FamHead is one shard's accumulator head: the journal count and the fam
// root at that count, captured atomically under one lock epoch.
type FamHead struct {
	Size uint64
	Root hashutil.Digest
}

// FamHead snapshots the live fam head. Size 0 (empty ledger) returns a
// zero root — the coordinator folds it as "shard present, nothing
// accumulated yet".
func (l *Ledger) FamHead() (FamHead, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	size := l.fam.Size()
	if size == 0 {
		return FamHead{}, nil
	}
	root, err := l.fam.Root()
	if err != nil {
		return FamHead{}, err
	}
	return FamHead{Size: size, Root: root}, nil
}

// ProveExistenceAt builds the shard-local half of a global existence
// proof: the raw record and its fam path ending at the root the ledger
// exposed when it held exactly size journals (a folded FamHead.Size).
// The caller supplies the trusted root — typically via the coordinator's
// signed global state — so no SignedState ships here. It runs through
// the same prover, and the same lock section, as ProveExistence.
func (l *Ledger) ProveExistenceAt(jsn, size uint64, withPayload bool) (*RecordProof, error) {
	if jsn >= size {
		return nil, fmt.Errorf("%w: jsn %d at size %d", ErrNotFound, jsn, size)
	}
	ps, _, err := l.proveRecords([]uint64{jsn}, size, nil, false, withPayload)
	if err != nil {
		return nil, err
	}
	return &ps[0], nil
}
