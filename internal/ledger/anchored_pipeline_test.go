package ledger

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// TestAnchoredProofsUnderPipelinedAppends races anchored existence
// proofs against pipelined append traffic. The regression it guards:
// snapshotProofs must take the fam path and the signed state from ONE
// read-lock section — with two separate sections an append can slide in
// between, leaving a path built against an older accumulator paired
// with a newer signed root (or vice versa), and verification fails
// spuriously. Run under -race (scripts/check.sh does) to also certify
// the lock-narrowed read path.
func TestAnchoredProofsUnderPipelinedAppends(t *testing.T) {
	const (
		writers    = 4
		appendsPer = 40
		verifiers  = 3
	)
	// A shallow fractal tree (epochs of 16) so epochs keep sealing —
	// anchors only cover sealed epochs, and the test needs them to grow
	// while the writers run. Same URI as pipeEnv so signedReq applies.
	lsp := sig.GenerateDeterministic("anchored/lsp")
	l, err := Open(Config{
		URI:           "ledger://pipe",
		FractalHeight: 4,
		BlockSize:     16,
		Clock:         func() int64 { return 42 },
		LSP:           lsp,
		DBA:           sig.GenerateDeterministic("anchored/dba").Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
		PipelineDepth: 16,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Seed a few journals so verifiers have something to prove from the
	// first iteration.
	seedKey := sig.GenerateDeterministic("anchored/seed")
	for n := uint64(1); n <= 4; n++ {
		if _, err := l.Append(signedReq(t, seedKey, 99, n, nil, "seed")); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg       sync.WaitGroup
		done     atomic.Bool
		verified atomic.Int64
	)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := sig.GenerateDeterministic(fmt.Sprintf("anchored/user%d", g))
			for i := 0; i < appendsPer; i++ {
				req := signedReq(t, key, g, uint64(i+1), nil, fmt.Sprintf("clue-%d", g))
				if _, err := l.Append(req); err != nil {
					t.Errorf("writer %d append %d: %v", g, i, err)
					return
				}
				if i%16 == 0 {
					if _, err := l.CutBlock(); err != nil {
						t.Errorf("writer %d cut: %v", g, err)
						return
					}
				}
			}
		}(g)
	}

	var vwg sync.WaitGroup
	for v := 0; v < verifiers; v++ {
		vwg.Add(1)
		go func(v int) {
			defer vwg.Done()
			for i := 0; !done.Load() || i < 8; i++ {
				// A fresh anchor mid-stream: proofs for journals inside
				// it must verify against it no matter how far the
				// ledger has advanced since.
				a := l.Anchor()
				if a == nil || a.Size == 0 {
					continue
				}
				jsn := uint64(v*31+i) % a.Size
				p, err := l.ProveExistenceAnchored(jsn, a, i%2 == 0)
				if err != nil {
					t.Errorf("verifier %d: prove %d under anchor %d: %v", v, jsn, a.Size, err)
					return
				}
				rec, err := VerifyExistenceAnchored(p, lsp.Public(), a)
				if err != nil {
					t.Errorf("verifier %d: verify %d under anchor %d: %v", v, jsn, a.Size, err)
					return
				}
				if rec.JSN != jsn {
					t.Errorf("verifier %d: proof for %d decoded as %d", v, jsn, rec.JSN)
					return
				}
				// Unanchored proofs share the same single-RLock section;
				// exercise them against the live state concurrently.
				if p2, err := l.ProveExistence(jsn, false); err != nil {
					t.Errorf("verifier %d: live prove %d: %v", v, jsn, err)
					return
				} else if _, err := VerifyExistence(p2, lsp.Public()); err != nil {
					t.Errorf("verifier %d: live verify %d: %v", v, jsn, err)
					return
				}
				verified.Add(1)
			}
		}(v)
	}

	wg.Wait()
	done.Store(true)
	vwg.Wait()
	if t.Failed() {
		return
	}
	if verified.Load() < int64(verifiers*8) {
		t.Fatalf("only %d proofs verified during the race", verified.Load())
	}

	// The quiesced ledger still proves everything the anchor covers.
	// The final open epoch (up to 2^FractalHeight journals) is excluded
	// from anchors by design — its root is still moving.
	a := l.Anchor()
	total := uint64(4 + writers*appendsPer)
	if wantSize := total - 16; a.Size < wantSize {
		t.Fatalf("anchor covers %d journals, want >= %d of %d", a.Size, wantSize, total)
	}
	for jsn := uint64(0); jsn < a.Size; jsn += 17 {
		p, err := l.ProveExistenceAnchored(jsn, a, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyExistenceAnchored(p, lsp.Public(), a); err != nil {
			t.Fatalf("jsn %d: %v", jsn, err)
		}
	}
}
