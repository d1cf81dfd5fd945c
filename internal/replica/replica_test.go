package replica

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

const testURI = "ledger://replica-test"

// localSource wraps a primary ledger directly: the puller protocol
// without the HTTP hop, with an optional mutate hook for fault injection.
type localSource struct {
	p      *ledger.Ledger
	mutate func(stream string, raw []byte) []byte
	fail   func(stream string) error
}

func (s *localSource) PullFrame(ctx context.Context, stream string, from uint64, max int) ([]byte, error) {
	if s.fail != nil {
		if err := s.fail(stream); err != nil {
			return nil, err
		}
	}
	recs, base, size, err := s.p.ReadStreamRange(stream, from, max, 0)
	if err != nil {
		return nil, err
	}
	f := &SegmentFrame{Stream: stream, Base: base, Len: size, Offset: from, Records: recs}
	f.Seal()
	raw := f.EncodeBytes()
	if s.mutate != nil {
		raw = s.mutate(stream, raw)
	}
	return raw, nil
}

func (s *localSource) State(ctx context.Context) (*ledger.SignedState, error) {
	return s.p.State()
}

type pair struct {
	clock    *logicalclock.Clock
	lsp      *sig.KeyPair
	dba, cli *sig.KeyPair
	primary  *ledger.Ledger
	follower *ledger.Ledger
	source   *localSource
	puller   *Puller
	nonce    uint64
}

func newPair(t *testing.T) *pair {
	t.Helper()
	pr := &pair{
		clock: logicalclock.New(1000),
		lsp:   sig.GenerateDeterministic("replica/lsp"),
		dba:   sig.GenerateDeterministic("replica/dba"),
		cli:   sig.GenerateDeterministic("replica/client"),
	}
	var err error
	pr.primary, err = ledger.Open(ledger.Config{
		URI:           testURI,
		FractalHeight: 3,
		BlockSize:     4,
		Clock:         pr.clock.Tick,
		LSP:           pr.lsp,
		DBA:           pr.dba.Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pr.primary.Close() })
	pr.follower, err = ledger.Open(ledger.Config{
		URI:           testURI,
		FractalHeight: 3,
		BlockSize:     4,
		Clock:         pr.clock.Tick,
		ApplyOnly:     true,
		PrimaryLSP:    pr.lsp.Public(),
		DBA:           pr.dba.Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pr.follower.Close() })
	pr.source = &localSource{p: pr.primary}
	pr.puller, err = New(Config{
		Source: pr.source,
		Ledger: pr.follower,
		Batch:  8, // small batches force multi-round catch-up
	})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func (pr *pair) append(t *testing.T, payload string, clues ...string) *journal.Receipt {
	t.Helper()
	pr.nonce++
	req := &journal.Request{
		LedgerURI: testURI,
		Type:      journal.TypeNormal,
		Payload:   []byte(payload),
		Clues:     clues,
		Nonce:     pr.nonce,
	}
	if err := req.Sign(pr.cli); err != nil {
		t.Fatal(err)
	}
	rcpt, err := pr.primary.Append(req)
	if err != nil {
		t.Fatal(err)
	}
	return rcpt
}

// catchUp drives RunOnce until the puller reports CaughtUp.
func (pr *pair) catchUp(t *testing.T, ctx context.Context) {
	t.Helper()
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("puller did not catch up")
		}
		if err := pr.puller.RunOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if pr.puller.Status().CaughtUp {
			return
		}
	}
}

func TestPullerConverges(t *testing.T) {
	pr := newPair(t)
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	for i := 0; i < 30; i++ {
		pr.append(t, fmt.Sprintf("doc-%d", i), "K")
	}
	pr.catchUp(t, ctx)

	if pr.follower.Size() != pr.primary.Size() || pr.follower.Height() != pr.primary.Height() {
		t.Fatalf("follower %d/%d, primary %d/%d",
			pr.follower.Size(), pr.follower.Height(), pr.primary.Size(), pr.primary.Height())
	}
	pst, _ := pr.primary.State()
	fst, err := pr.follower.State()
	if err != nil {
		t.Fatal(err)
	}
	if fst.JournalRoot != pst.JournalRoot || fst.JSN != pst.JSN {
		t.Fatal("follower state diverges from primary checkpoint")
	}
	st := pr.puller.Status()
	if st.AppliedJSN != pr.primary.Size() || st.CheckpointJSN != pst.JSN {
		t.Fatalf("status %+v does not reflect convergence", st)
	}
	if st.Degraded || st.LastErr != "" {
		t.Fatalf("healthy puller reports degraded: %+v", st)
	}
	// The replicated follower serves verifying proofs.
	p, err := pr.follower.ProveExistence(7, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.VerifyExistence(p, pr.lsp.Public()); err != nil {
		t.Fatal(err)
	}
}

func TestPullerPurgeResync(t *testing.T) {
	pr := newPair(t)
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	var survivor uint64
	for i := 0; i < 10; i++ {
		rc := pr.append(t, fmt.Sprintf("doc-%d", i), "K")
		if i == 3 {
			survivor = rc.JSN
		}
	}
	pr.catchUp(t, ctx)

	// Purge past the follower's frontier while it is cut off, then let
	// it discover the gap and resync through the digest stream.
	for i := 0; i < 6; i++ {
		pr.append(t, fmt.Sprintf("late-%d", i), "K")
	}
	desc := &ledger.PurgeDescriptor{URI: testURI, Point: 12, Survivors: []uint64{survivor}}
	ms := sig.NewMultiSig(desc.Digest())
	if err := ms.SignWith(pr.dba); err != nil {
		t.Fatal(err)
	}
	if err := ms.SignWith(pr.cli); err != nil {
		t.Fatal(err)
	}
	if _, err := pr.primary.Purge(desc, ms); err != nil {
		t.Fatal(err)
	}
	pr.catchUp(t, ctx)

	if pr.follower.Base() != pr.primary.Base() {
		t.Fatalf("follower base %d, primary %d", pr.follower.Base(), pr.primary.Base())
	}
	pst, _ := pr.primary.State()
	fst, err := pr.follower.State()
	if err != nil {
		t.Fatal(err)
	}
	if fst.JournalRoot != pst.JournalRoot || fst.ClueRoot != pst.ClueRoot {
		t.Fatal("post-purge roots diverge")
	}
	survs, err := pr.follower.Survivors()
	if err != nil {
		t.Fatal(err)
	}
	if len(survs) != 1 || survs[0].JSN != survivor {
		t.Fatalf("survivor %d lost in replication: %v", survivor, survs)
	}
	if _, err := pr.follower.GetJournal(5); !errors.Is(err, ledger.ErrPurged) {
		t.Fatalf("purged journal on follower: %v", err)
	}
}

func TestPullerDegradedAndRecovery(t *testing.T) {
	pr := newPair(t)
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		pr.append(t, fmt.Sprintf("doc-%d", i))
	}
	pr.catchUp(t, ctx)

	// Sever the link: rounds fail, the status goes degraded, but reads
	// against the cached checkpoint keep working.
	cut := errors.New("partition")
	pr.source.fail = func(string) error { return cut }
	if err := pr.puller.RunOnce(ctx); !errors.Is(err, cut) {
		t.Fatalf("severed round: %v", err)
	}
	st := pr.puller.Status()
	if !st.Degraded || st.LastErr == "" || st.CaughtUp {
		t.Fatalf("severed status %+v", st)
	}
	p, err := pr.follower.ProveExistence(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ledger.VerifyExistence(p, pr.lsp.Public()); err != nil {
		t.Fatal(err)
	}
	// Heal: the next successful round clears the flag.
	pr.source.fail = nil
	if err := pr.puller.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if st := pr.puller.Status(); st.Degraded || st.LastErr != "" {
		t.Fatalf("healed status %+v", st)
	}
}

func TestPullerRejectsTamperedFrames(t *testing.T) {
	pr := newPair(t)
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		pr.append(t, fmt.Sprintf("doc-%d", i))
	}
	// Flip one byte of every journal frame: Verify must fail before any
	// record reaches the follower's streams.
	pr.source.mutate = func(stream string, raw []byte) []byte {
		if stream == ledger.StreamJournals {
			raw = append([]byte(nil), raw...)
			raw[len(raw)/2] ^= 0x01
		}
		return raw
	}
	err := pr.puller.RunOnce(ctx)
	if err == nil || !(errors.Is(err, ErrDigest) || errors.Is(err, ErrBadFrame)) {
		t.Fatalf("tampered frame: %v", err)
	}
	if pr.follower.Size() != 0 { // an apply-only follower starts empty
		t.Fatalf("tampered records applied: follower at %d", pr.follower.Size())
	}
	pr.source.mutate = nil
	pr.catchUp(t, ctx)
	if pr.follower.Size() != pr.primary.Size() {
		t.Fatal("follower did not converge after tampering stopped")
	}
}

func TestPullerRejectsMismatchedFrame(t *testing.T) {
	pr := newPair(t)
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	pr.append(t, "doc")
	// A verified frame for the wrong offset (a replay) must be refused.
	pr.source.mutate = func(stream string, raw []byte) []byte {
		f, err := DecodeSegmentFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		f.Offset += 1
		f.Seal()
		return f.EncodeBytes()
	}
	if err := pr.puller.RunOnce(ctx); !errors.Is(err, ErrProtocol) {
		t.Fatalf("replayed frame: %v", err)
	}
}

// TestPullerRunBackoff drives the Run loop against a source that fails a
// few times, checking the jittered bounds double up to the cap and reset
// after success.
func TestPullerRunBackoff(t *testing.T) {
	pr := newPair(t)
	pr.append(t, "doc")
	var bounds []time.Duration
	pr.puller.cfg.jitterFn = func(bound time.Duration) time.Duration {
		bounds = append(bounds, bound)
		return 0 // no real waiting in tests
	}
	pr.puller.cfg.RetryBackoff = 10 * time.Millisecond
	pr.puller.cfg.MaxBackoff = 40 * time.Millisecond
	failures := 0
	cut := errors.New("flaky")
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	pr.source.fail = func(string) error {
		failures++
		if failures <= 4 {
			return cut
		}
		cancel() // healthy again: stop the loop after this round
		return nil
	}
	if err := pr.puller.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run: %v", err)
	}
	want := []time.Duration{10, 20, 40, 40} // ms: doubling, capped
	if len(bounds) != len(want) {
		t.Fatalf("bounds %v", bounds)
	}
	for i, b := range bounds {
		if b != want[i]*time.Millisecond {
			t.Fatalf("bound %d = %v, want %vms", i, b, want[i])
		}
	}
}

// stateHookSource runs before() at the start of every State call, which
// is the start of every round, and keeps the state it returns.
type stateHookSource struct {
	Source
	before func()
	last   *ledger.SignedState
}

func (s *stateHookSource) State(ctx context.Context) (*ledger.SignedState, error) {
	s.before()
	st, err := s.Source.State(ctx)
	s.last = st
	return st, err
}

// TestRoundInstallsMidRoundCommit: a record committed while a round runs
// is provable on the follower after that one round. The round fetches its
// checkpoint first and pulls exactly the prefix it covers, so the
// checkpoint lands at the applied frontier instead of waiting a round.
func TestRoundInstallsMidRoundCommit(t *testing.T) {
	pr := newPair(t)
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		pr.append(t, fmt.Sprintf("doc-%d", i), "K")
	}
	pr.catchUp(t, ctx)

	// Each round's State call first commits one record on the primary,
	// so the checkpoint it returns covers a record not yet pulled.
	src := &stateHookSource{Source: pr.source, before: func() { pr.append(t, "mid-round", "K") }}
	pr.puller.cfg.Source = src
	for round := 0; round < 3; round++ {
		if err := pr.puller.RunOnce(ctx); err != nil {
			t.Fatal(err)
		}
		st := pr.puller.Status()
		if st.CheckpointJSN != src.last.JSN || st.CheckpointJSN != pr.follower.Size() {
			t.Fatalf("round %d: checkpoint %d, fetched state %d, follower size %d",
				round, st.CheckpointJSN, src.last.JSN, pr.follower.Size())
		}
		p, err := pr.follower.ProveExistence(src.last.JSN-1, false)
		if err != nil {
			t.Fatalf("round %d: mid-round commit not provable: %v", round, err)
		}
		if _, err := ledger.VerifyExistence(p, pr.lsp.Public()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCaughtUpHoldsMidRound: CaughtUp describes the last completed
// round, so a round in flight on a level follower does not flicker it
// false under a concurrent WaitCaughtUp-style reader.
func TestCaughtUpHoldsMidRound(t *testing.T) {
	pr := newPair(t)
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		pr.append(t, fmt.Sprintf("doc-%d", i))
	}
	pr.catchUp(t, ctx)
	var mid []bool
	pr.puller.cfg.Source = &stateHookSource{Source: pr.source, before: func() {
		mid = append(mid, pr.puller.Status().CaughtUp)
	}}
	if err := pr.puller.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if len(mid) != 1 || !mid[0] || !pr.puller.Status().CaughtUp {
		t.Fatalf("CaughtUp mid-round %v, after %v", mid, pr.puller.Status().CaughtUp)
	}
}

type pullReq struct {
	stream string
	from   uint64
	max    int
}

// recordingSource logs every pull it forwards.
type recordingSource struct {
	Source
	pulls []pullReq
}

func (s *recordingSource) PullFrame(ctx context.Context, stream string, from uint64, max int) ([]byte, error) {
	s.pulls = append(s.pulls, pullReq{stream, from, max})
	return s.Source.PullFrame(ctx, stream, from, max)
}

// TestRoundFramesCappedAtCheckpoint: a follower many batches behind
// catches up to the checkpoint in one round, one journals request per
// Batch records, and no frame asks past the checkpoint.
func TestRoundFramesCappedAtCheckpoint(t *testing.T) {
	pr := newPair(t)
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		pr.append(t, fmt.Sprintf("doc-%d", i), "K")
	}
	src := &recordingSource{Source: pr.source}
	pl, err := New(Config{Source: src, Ledger: pr.follower, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	size := pr.primary.Size()
	st := pl.Status()
	if st.CheckpointJSN != size || pr.follower.Size() != size || pr.follower.Height() != pr.primary.Height() || !st.CaughtUp {
		t.Fatalf("one round left follower at %d/%d, status %+v; primary %d/%d",
			pr.follower.Size(), pr.follower.Height(), st, size, pr.primary.Height())
	}
	journals := 0
	for _, q := range src.pulls {
		if q.stream != ledger.StreamJournals {
			continue
		}
		journals++
		if q.max < 1 || q.max > 4 || q.from+uint64(q.max) > size {
			t.Fatalf("journal pull %+v overruns batch 4 or checkpoint %d", q, size)
		}
	}
	if want := int(size+3) / 4; journals != want {
		t.Fatalf("%d journal pulls for %d records, want %d", journals, size, want)
	}
}
