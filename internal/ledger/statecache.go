package ledger

import (
	"sync"

	"ledgerdb/internal/cmtree"
	"ledgerdb/internal/sig"
)

// stateCache amortizes SignedState signatures across concurrent proof
// requests. The engine bumps a commit generation counter on every
// mutation applied under the write lock (append, block cut, purge,
// occult, time anchor); a cached state signed at generation g stays
// valid for every read at generation g, so a burst of proof requests
// between two commits shares ONE signature instead of paying one sign
// per call. The cache has its own mutex (acquired after l.mu in lock
// order, never the reverse), which doubles as a single-flight gate:
// concurrent misses at the same generation serialize on it, the first
// signs, the rest return the freshly cached state. Unanchored existence
// proofs go further and reuse the newest entry of any generation that
// covers them (coveringStateLocked).
type stateCache struct {
	mu  sync.Mutex
	gen uint64       // generation st was signed at
	st  *SignedState // nil until the first sign
}

// get returns the cached state when it was signed at exactly gen.
func (c *stateCache) get(gen uint64) *SignedState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st != nil && c.gen == gen {
		return c.st
	}
	return nil
}

// newest returns the newest state signed so far, of any generation, or
// nil before the first sign.
func (c *stateCache) newest() *SignedState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// clueSetCache memoizes the sorted clue-set (absence) commitment. Key
// is (clue name-set version, purge base), NOT stateGen: the committed
// name set only changes when a brand-new clue appears or a purge moves
// the pseudo-genesis, so the O(clues) rebuild is amortized across every
// append to existing clues. The one transition that key misses is a
// RESURRECTION — a clue whose whole lineage was purged (last jsn below
// base) receiving a fresh append: no new name, same base, but the live
// set grows. The apply path detects it from Insert's previous-last-jsn
// and calls invalidate. Like stateCache, it has its own mutex (after
// l.mu in lock order) doubling as a single-flight gate — safe to
// consult from stateLocked under a read lock, where ledger fields may
// not be mutated. Callers hold l.mu, so (version, base) cannot move
// between the key read and the rebuild.
type clueSetCache struct {
	mu      sync.Mutex
	version uint64
	base    uint64
	tree    *cmtree.AbsenceTree
}

// invalidate drops the cached commitment; the next get rebuilds from
// the current live set. Called under l.mu (write) when a purged clue
// comes back to life.
func (c *clueSetCache) invalidate() {
	c.mu.Lock()
	c.tree = nil
	c.mu.Unlock()
}

// get returns the commitment for the tree's current name set filtered
// to jsns at or above base, rebuilding on key change.
func (c *clueSetCache) get(t *cmtree.Tree, base uint64) *cmtree.AbsenceTree {
	version := t.Version()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tree != nil && c.version == version && c.base == base {
		return c.tree
	}
	tree := cmtree.BuildAbsenceTree(t.LiveNames(base))
	c.version, c.base, c.tree = version, base, tree
	return tree
}

// signAndStore signs skel for generation gen, unless a racing caller
// already cached that generation, and retains the newest generation
// seen. skel is taken by value: the cached state is immutable from the
// moment it is published.
func (c *stateCache) signAndStore(gen uint64, skel SignedState, lsp *sig.KeyPair) (*SignedState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st != nil && c.gen == gen {
		return c.st, nil
	}
	if err := skel.sign(lsp); err != nil {
		return nil, err
	}
	if c.st == nil || gen >= c.gen {
		c.gen, c.st = gen, &skel
	}
	return &skel, nil
}
