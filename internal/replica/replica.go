package replica

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ledgerdb/internal/ledger"
)

// ErrProtocol marks a frame that decoded and verified but does not
// answer the question the puller asked (wrong stream, wrong offset):
// either a confused primary or a replayed frame. The puller treats it
// like a transport failure — back off and re-pull — because re-asking
// is always safe (pulls are idempotent reads).
var ErrProtocol = errors.New("replica: frame does not match request")

// Source is the follower's view of the primary: offset-addressed stream
// pulls returning sealed SegmentFrame encodings, plus the primary's
// current signed state. The production implementation is the hardened
// HTTP client (client.PullFrame / client.State); tests substitute an
// in-process source wrapping a *ledger.Ledger directly.
type Source interface {
	PullFrame(ctx context.Context, stream string, from uint64, max int) ([]byte, error)
	State(ctx context.Context) (*ledger.SignedState, error)
}

// Config tunes a Puller. Source and Ledger are required; Ledger must be
// open in apply-only mode (ledger.Config.ApplyOnly).
type Config struct {
	Source Source
	Ledger *ledger.Ledger
	// Interval is the idle delay after a round that installed its
	// checkpoint. Zero means 50ms.
	Interval time.Duration
	// RetryBackoff bounds the first post-failure wait; each actual wait
	// is drawn uniformly from [0, bound] (full jitter, same shape as the
	// client's) and the bound doubles per consecutive failure up to
	// MaxBackoff. Zero means 25ms.
	RetryBackoff time.Duration
	// MaxBackoff caps the backoff bound. Zero means 2s.
	MaxBackoff time.Duration
	// Batch is the per-pull record cap. Zero means 256. A round pulls as
	// many frames as it needs to reach its checkpoint.
	Batch int

	// jitterFn is a test seam for the backoff draw.
	jitterFn func(bound time.Duration) time.Duration
}

// Status is a point-in-time snapshot of replication progress, the
// source of truth for the follower's /readyz watermark. AppliedJSN is
// the follower's journal frontier; PrimaryJSN is the primary's frontier
// as of the last checkpoint fetch or journal pull, so
// PrimaryJSN-AppliedJSN is the known replication lag (an honest lower
// bound during a partition — the primary may have moved further). CheckpointJSN is the newest verified
// primary-signed state, the horizon the follower can prove up to.
type Status struct {
	Generation    uint64
	AppliedJSN    uint64
	PrimaryJSN    uint64
	CheckpointJSN uint64
	CheckpointTS  int64
	Seeding       bool
	CaughtUp      bool
	// Degraded is set after a failed round and cleared by the next
	// fully-successful one: the follower is serving reads from state
	// that can no longer be confirmed fresh.
	Degraded bool
	Rounds   uint64
	LastErr  string
}

// Puller drives one follower ledger against one Source: an endless
// pull → verify → apply loop that is crash recovery running
// continuously. Create with New, drive with Run (or RunOnce in tests).
type Puller struct {
	cfg Config

	mu sync.Mutex
	st Status
}

// New validates cfg and returns a Puller.
func New(cfg Config) (*Puller, error) {
	if cfg.Source == nil || cfg.Ledger == nil {
		return nil, errors.New("replica: Config.Source and Config.Ledger are required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 50 * time.Millisecond
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 256
	}
	return &Puller{cfg: cfg}, nil
}

// Status returns the current replication snapshot.
func (p *Puller) Status() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

// Run pulls until ctx is done, backing off with full jitter after
// failures and idling Interval after every round that installed its
// checkpoint; a round that stopped short (a purge-gap resync) runs again
// at once. It returns ctx.Err(): replication has no successful
// termination, only cancellation.
func (p *Puller) Run(ctx context.Context) error {
	backoff := p.cfg.RetryBackoff
	for {
		installed, err := p.runOnce(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var wait time.Duration
		if err != nil {
			wait = p.jitter(backoff)
			if backoff > p.cfg.MaxBackoff/2 {
				backoff = p.cfg.MaxBackoff
			} else {
				backoff *= 2
			}
		} else {
			backoff = p.cfg.RetryBackoff
			if installed {
				wait = p.cfg.Interval
			}
		}
		if err := p.sleep(ctx, wait); err != nil {
			return err
		}
	}
}

// RunOnce performs one replication round: fetch and verify the primary's
// signed checkpoint, then survival → journals up to the checkpoint (with
// purge-gap resync and purge-barrier handling) → blocks → install. The
// streams apply in the order the primary's group commit flushes them, so
// every prefix the follower persists is one the primary could have
// crashed at; and because the checkpoint is fetched first, the round
// applies exactly the prefix it covers and installs it at the applied
// frontier, where every root is cross-checked.
func (p *Puller) RunOnce(ctx context.Context) error {
	_, err := p.runOnce(ctx)
	return err
}

func (p *Puller) runOnce(ctx context.Context) (installed bool, err error) {
	installed, err = p.round(ctx)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.st.Rounds++
	p.refreshLocked()
	if !installed {
		// A failed or resynced round must not leave a stale caught-up
		// claim standing.
		p.st.CaughtUp = false
	}
	if err != nil {
		p.st.Degraded = true
		p.st.LastErr = err.Error()
		return false, err
	}
	p.st.Degraded = false
	p.st.LastErr = ""
	return installed, nil
}

// refreshLocked re-derives the ledger-side Status fields.
func (p *Puller) refreshLocked() {
	l := p.cfg.Ledger
	p.st.Generation = l.Generation()
	p.st.AppliedJSN = l.Size()
	if info, ok := l.ReplicaStatus(); ok {
		p.st.CheckpointJSN = info.CheckpointJSN
		p.st.CheckpointTS = info.CheckpointTS
		p.st.Seeding = info.Seeding
	}
}

// round runs one replication round and reports whether it installed its
// checkpoint. It stops short, with no error, after a purge-gap resync:
// the follower was re-based and the next round continues from the new
// base.
func (p *Puller) round(ctx context.Context) (bool, error) {
	l := p.cfg.Ledger
	// Checkpoint first: it is this round's target. Records committed
	// while the round runs wait for the next one rather than leaving the
	// checkpoint behind the applied prefix.
	st, err := p.cfg.Source.State(ctx)
	if err != nil {
		return false, err
	}
	p.observePrimary(st.JSN)
	// Survival next: a purge barrier later in the round needs every
	// survivor the primary has already flushed.
	if err := p.pullSurvival(ctx); err != nil {
		return false, err
	}
	primaryJournals, ok, err := p.pullJournals(ctx, st.JSN)
	if err != nil || !ok {
		return false, err
	}
	primaryBlocks, err := p.pullBlocks(ctx)
	if err != nil {
		return false, err
	}
	if err := l.SetReplicaState(st); err != nil {
		return false, err
	}
	p.mu.Lock()
	p.st.CaughtUp = l.Size() >= primaryJournals && l.Height() >= primaryBlocks
	p.mu.Unlock()
	return true, nil
}

// pullJournals applies journal frames, each capped at target, until the
// follower's prefix reaches target (the checkpoint's jsn). It returns
// the primary's journal frontier as last observed. ok is false when a
// purge gap re-based the follower instead.
func (p *Puller) pullJournals(ctx context.Context, target uint64) (primaryLen uint64, ok bool, err error) {
	l := p.cfg.Ledger
	fjBase, fjLen, err := l.StreamFrontier(ledger.StreamJournals)
	if err != nil {
		return 0, false, err
	}
	// A follower crash can land between a resync's journal re-base and
	// the end of its digest fill. The reopened ledger is seeding again
	// with a digest deficit, but the gap check below cannot see it — the
	// journal stream already starts at the new base. Finish the
	// inherited fill first or the round loop spins forever.
	if _, fdLen, err := l.StreamFrontier(ledger.StreamDigests); err != nil {
		return 0, false, err
	} else if fdLen < fjBase {
		if err := p.fillDigests(ctx, fjBase); err != nil {
			return 0, false, err
		}
	}
	primaryLen = target
	for fjLen < target {
		f, err := p.pull(ctx, ledger.StreamJournals, fjLen, int(min(target-fjLen, uint64(p.cfg.Batch))))
		if err != nil {
			return 0, false, err
		}
		p.observePrimary(f.Len)
		primaryLen = f.Len
		if f.Base > fjLen {
			// Gap: the primary purged past our frontier. Re-base, fill the
			// fam from the never-truncated digest stream, and let the
			// purge's pseudo genesis reseed the projections.
			return 0, false, p.resync(ctx, f.Base)
		}
		applied, barrier, err := l.ApplyReplicatedJournals(f.Offset, f.Records, false)
		if err != nil {
			return 0, false, err
		}
		if barrier {
			// A purge journal in steady state: sync survival all the way
			// to the primary's frontier, then replay the remainder with
			// the barrier lifted.
			if err := p.pullSurvivalToFrontier(ctx); err != nil {
				return 0, false, err
			}
			if _, _, err := l.ApplyReplicatedJournals(f.Offset+uint64(applied), f.Records[applied:], true); err != nil {
				return 0, false, err
			}
		}
		_, next, err := l.StreamFrontier(ledger.StreamJournals)
		if err != nil {
			return 0, false, err
		}
		if next == fjLen {
			return 0, false, fmt.Errorf("%w: journals stalled at %d, primary frontier %d, checkpoint %d",
				ErrProtocol, fjLen, f.Len, target)
		}
		fjLen = next
	}
	return primaryLen, true, nil
}

// pullBlocks applies block headers until the follower's chain reaches
// the primary's or stops at a header covering records past the applied
// prefix (it lands next round). It returns the primary's block count.
func (p *Puller) pullBlocks(ctx context.Context) (uint64, error) {
	l := p.cfg.Ledger
	for {
		_, fbLen, err := l.StreamFrontier(ledger.StreamBlocks)
		if err != nil {
			return 0, err
		}
		f, err := p.pull(ctx, ledger.StreamBlocks, fbLen, p.cfg.Batch)
		if err != nil {
			return 0, err
		}
		applied := 0
		if len(f.Records) > 0 {
			if applied, err = l.ApplyReplicatedBlocks(f.Offset, f.Records); err != nil {
				return 0, err
			}
		}
		if applied == 0 || applied < len(f.Records) || fbLen+uint64(applied) >= f.Len {
			return f.Len, nil
		}
	}
}

// pull fetches, decodes, and verifies one frame, rejecting any that
// answers a different question than asked.
func (p *Puller) pull(ctx context.Context, stream string, from uint64, max int) (*SegmentFrame, error) {
	raw, err := p.cfg.Source.PullFrame(ctx, stream, from, max)
	if err != nil {
		return nil, err
	}
	f, err := DecodeSegmentFrame(raw)
	if err != nil {
		return nil, err
	}
	if err := f.Verify(); err != nil {
		return nil, err
	}
	if f.Stream != stream || f.Offset != from {
		return nil, fmt.Errorf("%w: got %s@%d, asked %s@%d", ErrProtocol, f.Stream, f.Offset, stream, from)
	}
	return f, nil
}

// pullSurvival advances the survival stream by one frame.
func (p *Puller) pullSurvival(ctx context.Context) error {
	_, fsLen, err := p.cfg.Ledger.StreamFrontier(ledger.StreamSurvival)
	if err != nil {
		return err
	}
	f, err := p.pull(ctx, ledger.StreamSurvival, fsLen, p.cfg.Batch)
	if err != nil {
		return err
	}
	if len(f.Records) == 0 {
		return nil
	}
	_, err = p.cfg.Ledger.ApplyReplicatedSurvival(f.Offset, f.Records)
	return err
}

// pullSurvivalToFrontier loops until the follower's survival stream
// reaches the primary's (needed before a purge barrier can be crossed).
func (p *Puller) pullSurvivalToFrontier(ctx context.Context) error {
	for {
		_, fsLen, err := p.cfg.Ledger.StreamFrontier(ledger.StreamSurvival)
		if err != nil {
			return err
		}
		f, err := p.pull(ctx, ledger.StreamSurvival, fsLen, p.cfg.Batch)
		if err != nil {
			return err
		}
		if len(f.Records) > 0 {
			if _, err := p.cfg.Ledger.ApplyReplicatedSurvival(f.Offset, f.Records); err != nil {
				return err
			}
		}
		if fsLen+uint64(len(f.Records)) >= f.Len {
			return nil
		}
	}
}

// resync re-bases the follower at base and fills the fam accumulator
// from the digest stream up to (but never past) base; the journal pulls
// that follow provide everything from base onward, and the purge's
// pseudo genesis reseeds the projections.
func (p *Puller) resync(ctx context.Context, base uint64) error {
	if err := p.cfg.Ledger.BeginResync(base); err != nil {
		return err
	}
	return p.fillDigests(ctx, base)
}

// fillDigests pulls the never-truncated digest stream up to (but never
// past) base, the seeding half of a resync. It is also the recovery
// path for a follower that crashed mid-fill: the reopened ledger is
// already seeding, so the fill resumes from whatever digest prefix
// survived.
func (p *Puller) fillDigests(ctx context.Context, base uint64) error {
	l := p.cfg.Ledger
	for {
		_, fdLen, err := l.StreamFrontier(ledger.StreamDigests)
		if err != nil {
			return err
		}
		if fdLen >= base {
			return nil
		}
		f, err := p.pull(ctx, ledger.StreamDigests, fdLen, p.cfg.Batch)
		if err != nil {
			return err
		}
		recs := f.Records
		if rem := base - fdLen; uint64(len(recs)) > rem {
			recs = recs[:rem]
		}
		if len(recs) == 0 {
			return fmt.Errorf("%w: digest fill stalled at %d of %d", ErrProtocol, fdLen, base)
		}
		if _, err := l.ApplyReplicatedDigests(f.Offset, recs); err != nil {
			return err
		}
	}
}

// observePrimary records the primary's journal frontier from a frame.
func (p *Puller) observePrimary(size uint64) {
	p.mu.Lock()
	if size > p.st.PrimaryJSN {
		p.st.PrimaryJSN = size
	}
	p.mu.Unlock()
}

// sleep waits d or until ctx is done (the client.sleep shape — a bare
// time.Sleep would block shutdown for its full duration).
func (p *Puller) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jitter draws a wait uniformly from [0, bound] (full jitter), so a
// fleet of followers retrying after the same primary outage does not
// reconverge in lockstep.
func (p *Puller) jitter(bound time.Duration) time.Duration {
	if p.cfg.jitterFn != nil {
		return p.cfg.jitterFn(bound)
	}
	if bound <= 0 {
		return 0
	}
	return time.Duration(rand.Int63n(int64(bound) + 1))
}
