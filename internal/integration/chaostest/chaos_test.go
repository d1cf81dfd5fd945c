package chaostest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	"ledgerdb/internal/client"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/logicalclock"
	"ledgerdb/internal/netchaos"
	"ledgerdb/internal/server"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/tledger"
	"ledgerdb/internal/tsa"
)

// stack is one full deployment: ledger + T-Ledger + TSA behind a
// hardened HTTP server, reached by a hardened client whose transport
// runs through a netchaos fault proxy.
type stack struct {
	t     *testing.T
	repro string
	cfg   ledger.Config
	l     *ledger.Ledger
	srv   *server.Server
	hts   *httptest.Server
	proxy *netchaos.Proxy
	cli   *client.Client
}

func (s *stack) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("%s\n%s", fmt.Sprintf(format, args...), s.repro)
}

func newStack(t *testing.T, repro string) *stack {
	t.Helper()
	clock := logicalclock.New(500_000)
	lsp := sig.GenerateDeterministic("chaos-lsp")
	tl, err := tledger.New(tledger.Config{
		Clock:     clock.Now,
		Tolerance: 1_000,
		TSA:       tsa.NewPool(tsa.New("chaos-tsa", tsa.Options{Clock: clock.Now})),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ledger.Config{
		URI:           "ledger://chaos",
		FractalHeight: 4,
		BlockSize:     8,
		LSP:           lsp,
		DBA:           sig.GenerateDeterministic("chaos-dba").Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock:         clock.Tick,
	}
	l, err := ledger.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	srv := server.NewWithOptions(l, tl, server.Options{
		MaxInFlight:    32,
		RequestTimeout: 5 * time.Second,
	})
	hts := httptest.NewServer(srv)
	t.Cleanup(hts.Close)
	proxy := netchaos.NewProxy(http.DefaultTransport)
	return &stack{
		t:     t,
		repro: repro,
		cfg:   cfg,
		l:     l,
		srv:   srv,
		hts:   hts,
		proxy: proxy,
		cli: &client.Client{
			BaseURL: hts.URL,
			HTTP:    &http.Client{Transport: proxy},
			Key:     sig.GenerateDeterministic("chaos-client"),
			LSP:     lsp.Public(),
			URI:     "ledger://chaos",
			Retries: 6,
			// Millisecond-scale waits keep 500 torture iterations fast;
			// the Retry-After regression covers realistic hints.
			RetryBackoff: time.Millisecond,
			MaxBackoff:   20 * time.Millisecond,
			Timeout:      10 * time.Second,
		},
	}
}

// accepted is one journal the client holds a verified receipt for.
type accepted struct {
	jsn     uint64
	txHash  hashutil.Digest
	payload []byte
}

// run executes one client op under chaos, asserting that it terminates
// within the deadline budget and that any failure has a classified
// shape.
func (s *stack) run(op string, fn func() error) {
	s.t.Helper()
	start := time.Now()
	err := fn()
	if elapsed := time.Since(start); elapsed > s.cli.Timeout+5*time.Second {
		s.fatalf("%s: call blocked %v, budget %v", op, elapsed, s.cli.Timeout)
	}
	if err != nil {
		s.classify(op, err)
	}
}

// classify checks that a chaos-afflicted failure is one of the shapes
// the client contract promises: a tamper rejection carrying evidence, a
// classified HTTP/transport failure, a fast-failed open circuit, or the
// caller's own deadline. Anything else is an invariant violation.
func (s *stack) classify(op string, err error) {
	s.t.Helper()
	var te *client.TamperError
	if errors.As(err, &te) {
		ev := te.Evidence
		if ev == nil || ev.Method == "" || ev.Path == "" || ev.Check == "" {
			s.fatalf("%s: tamper error without usable evidence: %v", op, err)
		}
		return
	}
	switch {
	case errors.Is(err, client.ErrHTTP),
		errors.Is(err, client.ErrCircuitOpen),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return
	}
	s.fatalf("%s: unclassified failure: %v", op, err)
}

func runIteration(t *testing.T, seed int64, iter int) {
	rng := rand.New(rand.NewSource(seed + int64(iter)*1_000_003))
	repro := fmt.Sprintf("repro: CHAOSTEST_SEED=%d CHAOSTEST_ITER=%d go test -run TestNetworkChaosTorture ./internal/integration/chaostest", seed, iter)
	s := newStack(t, repro)
	s.proxy.ArmSchedule(netchaos.RandomSchedule(rng, 96))

	var committed []accepted
	doc := 0
	newPayload := func() []byte {
		doc++
		return []byte(fmt.Sprintf("doc-%d-%d", iter, doc))
	}

	for op := 0; op < 24; op++ {
		switch rng.Intn(8) {
		case 0, 1, 2: // single append, idempotency-keyed
			p := newPayload()
			s.run("append", func() error {
				r, err := s.cli.Append(p, "chaos")
				if err != nil {
					return err
				}
				committed = append(committed, accepted{jsn: r.JSN, txHash: r.TxHash, payload: p})
				return nil
			})
		case 3: // batch append, one idempotency key for the group
			payloads := make([][]byte, 2+rng.Intn(3))
			for i := range payloads {
				payloads[i] = newPayload()
			}
			s.run("append-batch", func() error {
				br, txs, err := s.cli.AppendBatch(payloads, nil)
				if err != nil {
					return err
				}
				for i := uint64(0); i < br.Count; i++ {
					committed = append(committed, accepted{jsn: br.FirstJSN + i, txHash: txs[i], payload: payloads[i]})
				}
				return nil
			})
		case 4: // existence proof for a journal we hold a receipt for
			if len(committed) == 0 {
				continue
			}
			ar := committed[rng.Intn(len(committed))]
			s.run("verify-existence", func() error {
				rec, payload, err := s.cli.VerifyExistence(ar.jsn, true)
				if err != nil {
					return err
				}
				if rec.TxHash() != ar.txHash {
					s.fatalf("verify-existence(%d): proof verified but differs from receipt", ar.jsn)
				}
				if !bytes.Equal(payload, ar.payload) {
					s.fatalf("verify-existence(%d): wrong payload", ar.jsn)
				}
				return nil
			})
		case 5:
			s.run("state", func() error {
				_, err := s.cli.State()
				return err
			})
		case 6: // raw journal read, sometimes past the end (a clean 404)
			jsn := uint64(rng.Int63n(int64(s.l.Size()) + 2))
			s.run("get-journal", func() error {
				_, err := s.cli.GetJournal(jsn)
				return err
			})
		case 7:
			if rng.Intn(2) == 0 {
				s.run("clue-jsns", func() error {
					_, err := s.cli.ClueJSNs("chaos")
					return err
				})
			} else {
				// Non-idempotent POST: never transport-retried, so its
				// failures exercise the fail-fast path.
				s.run("anchor-time", func() error {
					_, err := s.cli.AnchorTime()
					return err
				})
			}
		}
	}

	// Chaos over: the surviving state must be fully intact.
	s.proxy.Clear()

	// (a) Every receipt the client accepted verifies, payload included,
	// through both the single and the batched proof APIs.
	jsns := make([]uint64, 0, len(committed))
	for _, ar := range committed {
		jsns = append(jsns, ar.jsn)
		rec, payload, err := s.cli.VerifyExistence(ar.jsn, true)
		if err != nil {
			s.fatalf("post-chaos verify(%d): %v", ar.jsn, err)
		}
		if rec.TxHash() != ar.txHash {
			s.fatalf("post-chaos verify(%d): record differs from accepted receipt", ar.jsn)
		}
		if !bytes.Equal(payload, ar.payload) {
			s.fatalf("post-chaos verify(%d): wrong payload", ar.jsn)
		}
	}
	if len(jsns) > 0 {
		recs, _, err := s.cli.VerifyExistenceBatch(jsns, false)
		if err != nil {
			s.fatalf("post-chaos batch verify: %v", err)
		}
		for i, rec := range recs {
			if rec.TxHash() != committed[i].txHash {
				s.fatalf("post-chaos batch verify: record %d differs from receipt", jsns[i])
			}
		}
	}

	// (b) The live signed state still verifies against the pinned key.
	if _, err := s.cli.State(); err != nil {
		s.fatalf("post-chaos state: %v", err)
	}

	// (c) No double-appends: however many times chaos made the client or
	// a middlebox resubmit, each signed request committed at most once.
	seen := make(map[hashutil.Digest]uint64, s.l.Size())
	for jsn := uint64(0); jsn < s.l.Size(); jsn++ {
		rec, err := s.l.GetJournal(jsn)
		if err != nil {
			s.fatalf("journal scan %d: %v", jsn, err)
		}
		if rec.Type != journal.TypeNormal {
			continue
		}
		if prev, dup := seen[rec.RequestHash]; dup {
			s.fatalf("double-append: journals %d and %d carry the same request hash", prev, jsn)
		}
		seen[rec.RequestHash] = jsn
	}
}

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

// TestNetworkChaosTorture runs randomized fault schedules (500 by
// default, CHAOSTEST_ITERS overrides) against the full client/server
// stack. CHAOSTEST_SEED pins the PRNG, CHAOSTEST_ITER replays one
// failing iteration from a repro line.
func TestNetworkChaosTorture(t *testing.T) {
	seed := int64(envInt("CHAOSTEST_SEED", 0xC4A05))
	if s := os.Getenv("CHAOSTEST_ITER"); s != "" {
		iter, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad CHAOSTEST_ITER %q", s)
		}
		runIteration(t, seed, iter)
		return
	}
	iters := envInt("CHAOSTEST_ITERS", 500)
	if testing.Short() {
		iters = 60
	}
	const shards = 8
	perShard := (iters + shards - 1) / shards
	for s := 0; s < shards; s++ {
		first, last := s*perShard, (s+1)*perShard
		if last > iters {
			last = iters
		}
		if first >= last {
			break
		}
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			for i := first; i < last; i++ {
				runIteration(t, seed, i)
			}
		})
	}
}
