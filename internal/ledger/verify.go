package ledger

import (
	"fmt"

	"ledgerdb/internal/cmtree"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/merkle/fam"
	"ledgerdb/internal/mpt"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/wire"
)

// This file implements the server-side proof generation and the pure
// client-side verification functions — verification "conducted in two
// different manners" per §II-C: at server side when the LSP is trusted,
// at client side when it is not.

// RecordProof is the stateless core of every existence proof: one
// journal's raw record, its optional payload, and its fam path. It is
// anchored by whatever trusted root the caller holds — a signed state
// (ExistenceProof, ExistenceProofBatch, ProofBundle) or a fold-time
// shard head bound into a signed global root (shard.GlobalProof).
type RecordProof struct {
	RecordBytes []byte
	Payload     []byte // nil for occulted journals or digest-only proofs
	Fam         *fam.Proof
}

// ExistenceProof bundles everything a distrusting client needs to verify
// that a journal exists verbatim on the ledger (the what factor):
// the raw record, its fam accumulator proof, and the LSP-signed state the
// proof anchors to. Payload is included when the caller asked for it and
// the journal is not occulted.
type ExistenceProof struct {
	RecordProof
	State *SignedState
}

// ProveExistence builds an existence proof for jsn against the newest
// signed state that covers it (on a follower, the newest checkpoint).
// withPayload controls whether the raw payload ships along.
func (l *Ledger) ProveExistence(jsn uint64, withPayload bool) (*ExistenceProof, error) {
	return l.ProveExistenceAnchored(jsn, nil, withPayload)
}

// ProveExistenceAnchored is ProveExistence using a verifier-held fam-aoa
// trusted anchor, producing the short proof of Figure 4(a); a nil anchor
// is ProveExistence. The anchored fam path and the signed state are
// taken under one read-lock section, so the hop chain ends at exactly
// the signed JournalRoot even while concurrent appends land.
func (l *Ledger) ProveExistenceAnchored(jsn uint64, a *fam.Anchor, withPayload bool) (*ExistenceProof, error) {
	ps, st, err := l.proveRecords([]uint64{jsn}, 0, a, false, withPayload)
	if err != nil {
		return nil, err
	}
	return &ExistenceProof{RecordProof: ps[0], State: st}, nil
}

// snapshotProofs is the locked half of every existence prover. Under one
// read-lock epoch it bounds-checks jsns, picks the root the proofs fold
// to, and copies out each fam path and occult bit. The root is
//   - fold > 0: the fam root at fold journals, with no state (a shard
//     head folded by the coordinator, whose signature the caller holds);
//   - a != nil: the live signed state, reached through the verifier's
//     fam-aoa anchor (on a follower, the checkpoint at exactly the
//     applied frontier);
//   - live: the live signed state on a primary (ExportBundle, whose
//     when-chain is searched for below it), the newest checkpoint on a
//     follower;
//   - otherwise the newest signed state covering every jsn
//     (coveringStateLocked).
func (l *Ledger) snapshotProofs(jsns []uint64, fold uint64, a *fam.Anchor, live bool) ([]RecordProof, []bool, *SignedState, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if fold > l.nextJSN {
		return nil, nil, nil, fmt.Errorf("%w: proof at size %d of %d", ErrNotFound, fold, l.nextJSN)
	}
	var top uint64
	for _, jsn := range jsns {
		if jsn >= l.nextJSN {
			return nil, nil, nil, fmt.Errorf("%w: jsn %d of %d", ErrNotFound, jsn, l.nextJSN)
		}
		if jsn < l.base {
			return nil, nil, nil, fmt.Errorf("%w: jsn %d", ErrPurged, jsn)
		}
		top = max(top, jsn)
	}
	var st *SignedState
	var err error
	size := fold
	if fold == 0 {
		if a != nil || (live && !l.cfg.ApplyOnly) {
			st, err = l.stateLocked()
		} else {
			st, err = l.coveringStateLocked(top)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		size = st.JSN
	}
	ps := make([]RecordProof, len(jsns))
	occ := make([]bool, len(jsns))
	for i, jsn := range jsns {
		if jsn >= size {
			return nil, nil, nil, fmt.Errorf("%w: jsn %d not covered by checkpoint at %d", ErrStaleCheckpoint, jsn, size)
		}
		if a != nil {
			ps[i].Fam, err = l.fam.ProveAnchored(jsn, a)
		} else {
			ps[i].Fam, err = l.fam.ProveAt(jsn, size)
		}
		if err != nil {
			return nil, nil, nil, err
		}
		occ[i] = l.occulted[jsn]
	}
	return ps, occ, st, nil
}

// proveRecords is every existence prover: snapshotProofs under the lock,
// then the record bytes and (when asked for and not occulted) payloads
// read after it is dropped. Committed records and content-addressed
// payloads are immutable, and both stores carry their own locks.
func (l *Ledger) proveRecords(jsns []uint64, fold uint64, a *fam.Anchor, live, withPayload bool) ([]RecordProof, *SignedState, error) {
	ps, occ, st, err := l.snapshotProofs(jsns, fold, a, live)
	if err != nil {
		return nil, nil, err
	}
	for i, jsn := range jsns {
		if ps[i].RecordBytes, err = l.readJournalBytes(jsn); err != nil {
			return nil, nil, err
		}
		if withPayload && !occ[i] {
			rec, err := journal.DecodeRecord(ps[i].RecordBytes)
			if err != nil {
				return nil, nil, err
			}
			if payload, err := l.cfg.Blobs.Get(rec.PayloadDigest); err == nil {
				ps[i].Payload = payload
			}
		}
	}
	return ps, st, nil
}

// VerifyRecordAtRoot is the one per-record existence check, shared by
// every proof container once it has authenticated root: decode the
// record, fold its tx-hash through the fam path to root (through anchor
// a when non-nil), re-verify the record's client signatures (who), and
// match a shipped payload against the recorded digest (the "foobar" vs
// "foopar" check of §III-A). The root's own authenticity — LSP
// signature, or global accumulator membership plus coordinator
// signature — is the caller's concern.
//
// Occult Protocol 2 falls out naturally: an occulted journal ships no
// payload, and its retained PayloadDigest is what the tx-hash covers.
func VerifyRecordAtRoot(p *RecordProof, a *fam.Anchor, root hashutil.Digest) (*journal.Record, error) {
	if p == nil || p.Fam == nil {
		return nil, fmt.Errorf("%w: incomplete proof", ErrVerify)
	}
	rec, err := journal.DecodeRecord(p.RecordBytes)
	if err != nil {
		return nil, err
	}
	// The fam fold below binds the record's content; this binds the
	// path's claimed position, which fam.Verify treats as metadata.
	if p.Fam.Index != rec.JSN {
		return nil, fmt.Errorf("%w: fam proof is for journal %d, record is %d", ErrVerify, p.Fam.Index, rec.JSN)
	}
	txHash := rec.TxHash()
	if a != nil {
		err = fam.VerifyAnchored(txHash, p.Fam, a, root)
	} else {
		err = fam.Verify(txHash, p.Fam, root)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: what: %v", ErrVerify, err)
	}
	if err := journal.VerifyRecordSigs(rec); err != nil {
		return nil, fmt.Errorf("%w: who: %v", ErrVerify, err)
	}
	if p.Payload != nil && hashutil.Sum(p.Payload) != rec.PayloadDigest {
		return nil, fmt.Errorf("%w: payload does not match recorded digest", ErrVerify)
	}
	return rec, nil
}

// EncodeRecordProof appends p. Every container that carries a record
// proof (existence proofs, batches, bundles, global proofs) uses this
// layout. It is a function, not a method, so the containers that embed
// RecordProof do not inherit a partial encoder.
func EncodeRecordProof(w *wire.Writer, p *RecordProof) {
	w.WriteBytes(p.RecordBytes)
	w.WriteBytes(p.Payload)
	p.Fam.Encode(w)
}

// DecodeRecordProof reads a record proof written by EncodeRecordProof.
// An empty payload decodes as nil (digest-only).
func DecodeRecordProof(r *wire.Reader) (RecordProof, error) {
	p := RecordProof{RecordBytes: r.BytesCopy()}
	if payload := r.BytesCopy(); len(payload) > 0 {
		p.Payload = payload
	}
	fp, err := fam.DecodeProof(r)
	if err != nil {
		return RecordProof{}, err
	}
	p.Fam = fp
	return p, nil
}

// VerifyExistence is the client-side what (+who) verification: check the
// LSP's signature on the state, then VerifyRecordAtRoot against the
// signed journal root.
func VerifyExistence(p *ExistenceProof, lsp sig.PublicKey) (*journal.Record, error) {
	return VerifyExistenceAnchored(p, lsp, nil)
}

// VerifyExistenceAnchored is VerifyExistence under a fam-aoa anchor; a
// nil anchor is VerifyExistence.
func VerifyExistenceAnchored(p *ExistenceProof, lsp sig.PublicKey, a *fam.Anchor) (*journal.Record, error) {
	if p == nil || p.State == nil {
		return nil, fmt.Errorf("%w: incomplete proof", ErrVerify)
	}
	if err := p.State.Verify(lsp); err != nil {
		return nil, err
	}
	return VerifyRecordAtRoot(&p.RecordProof, a, p.State.JournalRoot)
}

// VerifyExistenceServer is the trusted-LSP fast path: the server checks
// the journal against its own accumulator without signing a state or
// shipping bytes.
func (l *Ledger) VerifyExistenceServer(jsn uint64) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	rec, err := l.getJournalLocked(jsn)
	if err != nil {
		return err
	}
	root, err := l.fam.Root()
	if err != nil {
		return err
	}
	fp, err := l.fam.Prove(jsn)
	if err != nil {
		return err
	}
	if err := fam.Verify(rec.TxHash(), fp, root); err != nil {
		return fmt.Errorf("%w: %v", ErrVerify, err)
	}
	return nil
}

// ClueProofBundle is the client-side lineage proof for the Verify(lgid,
// CLUE, …) API of §IV-C: the retrieved records for the requested version
// range, the CM-Tree proof set, and the signed state anchoring CM-Tree1.
type ClueProofBundle struct {
	Clue    string
	Records [][]byte // encoded journal records for [Begin, End)
	CM      *cmtree.ClueProof
	State   *SignedState
}

// ProveClue builds the bundle for versions [begin, end) of a clue
// (steps 1–5 of the client-side algorithm, executed at the server).
// Pass end = 0 for "the entire clue so far".
// The read lock covers the clue's jsn list, the CM-Tree snapshot, and
// the signed state; the proof walk over the snapshot (a copy) and the
// journal-stream reads run after the lock is dropped.
func (l *Ledger) ProveClue(clue string, begin, end uint64) (*ClueProofBundle, error) {
	l.mu.RLock()
	jsns, err := l.clues.JSNs(clue)
	if err != nil {
		l.mu.RUnlock()
		return nil, fmt.Errorf("%w: clue %q", ErrNotFound, clue)
	}
	if end == 0 {
		end = uint64(len(jsns))
	}
	if begin >= end || end > uint64(len(jsns)) {
		l.mu.RUnlock()
		return nil, fmt.Errorf("%w: range [%d,%d) of %d", cmtree.ErrBadRange, begin, end, len(jsns))
	}
	snap := l.clues.Snapshot()
	st, stErr := l.stateLocked()
	l.mu.RUnlock()
	if stErr != nil {
		return nil, stErr
	}
	cp, err := snap.ProveClue(clue, begin, end)
	if err != nil {
		return nil, err
	}
	b := &ClueProofBundle{Clue: clue, CM: cp, State: st}
	for _, jsn := range jsns[begin:end] {
		raw, err := l.readJournalBytes(jsn)
		if err != nil {
			return nil, fmt.Errorf("ledger: clue %q journal %d: %w", clue, jsn, err)
		}
		b.Records = append(b.Records, raw)
	}
	return b, nil
}

// ProveClueByTime is the timestamp-boundary form of §IV-C's typical
// scene 2 ("verify within a range specified by version (or timestamp)
// boundaries"): it maps the half-open commit-time window [t1, t2) to the
// clue's version range and proves that. Clue versions are appended in
// commit order, so timestamps are monotone within a clue.
func (l *Ledger) ProveClueByTime(clue string, t1, t2 int64) (*ClueProofBundle, error) {
	l.mu.RLock()
	jsns, err := l.clues.JSNs(clue)
	l.mu.RUnlock()
	if err != nil {
		return nil, fmt.Errorf("%w: clue %q", ErrNotFound, clue)
	}
	begin, end := uint64(0), uint64(0)
	found := false
	for v, jsn := range jsns {
		rec, err := l.GetJournal(jsn)
		if err != nil {
			return nil, err
		}
		if rec.Timestamp < t1 {
			begin = uint64(v + 1)
			continue
		}
		if rec.Timestamp >= t2 {
			break
		}
		end = uint64(v + 1)
		found = true
	}
	if !found {
		return nil, fmt.Errorf("%w: clue %q has no versions in [%d, %d)", ErrNotFound, clue, t1, t2)
	}
	return l.ProveClue(clue, begin, end)
}

// VerifyClue is the client-side step 6: re-derive each record's tx-hash,
// validate the lineage against the clue's CM-Tree2 frontier and CM-Tree1
// root (both layers must prove, §IV-C), check the LSP state signature,
// and re-verify every record's client signatures. Returns the decoded
// records on success.
func VerifyClue(b *ClueProofBundle, lsp sig.PublicKey) ([]*journal.Record, error) {
	if b == nil || b.CM == nil || b.State == nil {
		return nil, fmt.Errorf("%w: incomplete clue bundle", ErrVerify)
	}
	// The CM proof's clue is what the MPT path below authenticates; the
	// bundle's label must agree, or a server could relabel a lineage.
	if b.Clue != b.CM.Clue {
		return nil, fmt.Errorf("%w: bundle labeled %q but proves clue %q", ErrVerify, b.Clue, b.CM.Clue)
	}
	if err := b.State.Verify(lsp); err != nil {
		return nil, err
	}
	recs := make([]*journal.Record, 0, len(b.Records))
	digests := make([]hashutil.Digest, 0, len(b.Records))
	for i, raw := range b.Records {
		rec, err := journal.DecodeRecord(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrVerify, i, err)
		}
		if err := journal.VerifyRecordSigs(rec); err != nil {
			return nil, fmt.Errorf("%w: who: %v", ErrVerify, err)
		}
		recs = append(recs, rec)
		digests = append(digests, rec.TxHash())
	}
	if err := cmtree.VerifyClue(b.State.ClueRoot, b.CM, digests); err != nil {
		return nil, fmt.Errorf("%w: lineage: %v", ErrVerify, err)
	}
	return recs, nil
}

// EncodeBytes serializes an existence proof for transport.
func (p *ExistenceProof) EncodeBytes() []byte {
	w := wire.NewWriter(1024)
	EncodeRecordProof(w, &p.RecordProof)
	p.State.Encode(w)
	return w.Bytes()
}

// DecodeExistenceProof parses a transported existence proof.
func DecodeExistenceProof(b []byte) (*ExistenceProof, error) {
	r := wire.NewReader(b)
	rp, err := DecodeRecordProof(r)
	if err != nil {
		return nil, err
	}
	st, err := DecodeSignedState(r)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return &ExistenceProof{RecordProof: rp, State: st}, nil
}

// EncodeBytes serializes a clue proof bundle for transport.
func (b *ClueProofBundle) EncodeBytes() []byte {
	w := wire.NewWriter(4096)
	w.String(b.Clue)
	w.Uvarint(uint64(len(b.Records)))
	for _, rec := range b.Records {
		w.WriteBytes(rec)
	}
	b.CM.Encode(w)
	b.State.Encode(w)
	return w.Bytes()
}

// DecodeClueProofBundle parses a transported clue bundle.
func DecodeClueProofBundle(raw []byte) (*ClueProofBundle, error) {
	r := wire.NewReader(raw)
	b := &ClueProofBundle{Clue: r.String()}
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: %d records", ErrVerify, n)
	}
	for i := uint64(0); i < n; i++ {
		b.Records = append(b.Records, r.BytesCopy())
	}
	cp, err := cmtree.DecodeClueProof(r)
	if err != nil {
		return nil, err
	}
	b.CM = cp
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

// StateProof is a verifiable world-state read: the current value
// binding for a key (the jsn and payload digest of the latest journal
// that set it), proven into the state MPT whose root the LSP signed.
type StateProof struct {
	Key   []byte
	Value []byte // encodeStateValue(jsn, payloadDigest)
	MPT   *mpt.Proof
	State *SignedState
}

// ProveState builds a verifiable read of the world-state entry for key.
// The read lock covers only the trie snapshot (the MPT is persistent,
// so the pointer stays valid forever) and the signed state; the lookup
// and path collection run lock-free on the snapshot.
func (l *Ledger) ProveState(key []byte) (*StateProof, error) {
	l.mu.RLock()
	trie := l.state
	st, stErr := l.stateLocked()
	l.mu.RUnlock()
	if stErr != nil {
		return nil, stErr
	}
	value, err := trie.Get(key)
	if err != nil {
		return nil, fmt.Errorf("%w: state key %q", ErrNotFound, key)
	}
	proof, err := trie.Prove(key)
	if err != nil {
		return nil, err
	}
	return &StateProof{Key: key, Value: value, MPT: proof, State: st}, nil
}

// VerifyState is the client-side check of a world-state read: the LSP
// signature over the state, then the MPT path from the key's leaf to the
// signed StateRoot. Returns the jsn and payload digest of the journal
// holding the current value.
func VerifyState(p *StateProof, lsp sig.PublicKey) (uint64, hashutil.Digest, error) {
	if p == nil || p.MPT == nil || p.State == nil {
		return 0, hashutil.Zero, fmt.Errorf("%w: incomplete state proof", ErrVerify)
	}
	if err := p.State.Verify(lsp); err != nil {
		return 0, hashutil.Zero, err
	}
	if err := mpt.VerifyProof(p.State.StateRoot, p.Key, p.Value, p.MPT); err != nil {
		return 0, hashutil.Zero, fmt.Errorf("%w: state: %v", ErrVerify, err)
	}
	return decodeStateValue(p.Value)
}

// EncodeBytes serializes a state proof for transport.
func (p *StateProof) EncodeBytes() []byte {
	w := wire.NewWriter(512)
	w.WriteBytes(p.Key)
	w.WriteBytes(p.Value)
	w.Uvarint(uint64(len(p.MPT.Nodes)))
	for _, n := range p.MPT.Nodes {
		w.WriteBytes(n)
	}
	p.State.Encode(w)
	return w.Bytes()
}

// DecodeStateProof parses a transported state proof.
func DecodeStateProof(raw []byte) (*StateProof, error) {
	r := wire.NewReader(raw)
	p := &StateProof{Key: r.BytesCopy(), Value: r.BytesCopy(), MPT: &mpt.Proof{}}
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if n > 4096 {
		return nil, fmt.Errorf("%w: %d MPT nodes", ErrVerify, n)
	}
	for i := uint64(0); i < n; i++ {
		p.MPT.Nodes = append(p.MPT.Nodes, r.BytesCopy())
	}
	st, err := DecodeSignedState(r)
	if err != nil {
		return nil, err
	}
	p.State = st
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return p, nil
}

// VerifyClueServer is the trusted-LSP lineage fast path (§IV-C server
// side: steps 1–3 plus a local validation).
func (l *Ledger) VerifyClueServer(clue string) error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	jsns, err := l.clues.JSNs(clue)
	if err != nil {
		return fmt.Errorf("%w: clue %q", ErrNotFound, clue)
	}
	digests := make([]hashutil.Digest, 0, len(jsns))
	for _, jsn := range jsns {
		//lint:ignore L1 the clue index and digest prefix must be read under one lock epoch or a concurrent same-clue append fails the frontier check
		raw, err := l.digests.Read(jsn)
		if err != nil {
			return err
		}
		var d hashutil.Digest
		copy(d[:], raw)
		digests = append(digests, d)
	}
	if err := l.clues.VerifyServer(clue, digests); err != nil {
		return fmt.Errorf("%w: %v", ErrVerify, err)
	}
	return nil
}
