package ledger

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// benchProofLedger builds a ledger with enough journals that proof
// requests exercise real fam paths.
func benchProofLedger(b *testing.B) *testEnv {
	b.Helper()
	e := newEnv(b, func(c *Config) {
		c.FractalHeight = 6
		c.BlockSize = 64
	})
	for i := 0; i < 256; i++ {
		e.append(b, fmt.Sprintf("bench-doc-%04d", i))
	}
	return e
}

// BenchmarkProveExistence sweeps prover-side concurrency. Concurrent
// provers under one commit generation share a single cached ECDSA
// signature and the RLock section contains no signing at all, so
// throughput scales with readers.
func BenchmarkProveExistence(b *testing.B) {
	e := benchProofLedger(b)
	size := e.ledger.Size()
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", par), func(b *testing.B) {
			var next atomic.Uint64
			b.SetParallelism(par)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					jsn := next.Add(1) % size
					if _, err := e.ledger.ProveExistence(jsn, false); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkExistenceBatch compares proving AND verifying 64 journals as
// one batch versus 64 single proofs. Prover-side the two are close
// (the state cache already amortizes signing), and verifier-side too:
// all 64 single proofs carry the same state, whose signature the
// verifier checks once per process (verifiedStates). What the batch
// still saves is 63 state encodings on the wire and 63 state digests.
func BenchmarkExistenceBatch(b *testing.B) {
	e := benchProofLedger(b)
	lsp := e.lsp.Public()
	jsns := make([]uint64, 64)
	for i := range jsns {
		jsns[i] = uint64(i*3 + 1)
	}
	b.Run("batch=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := e.ledger.ProveExistenceBatch(jsns, false)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := VerifyExistenceBatch(p, lsp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single-x64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, jsn := range jsns {
				p, err := e.ledger.ProveExistence(jsn, false)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := VerifyExistence(p, lsp); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkStateVerify is the client's state check in a proof verify:
// cold verifies a state this process has not seen (one ECDSA verify),
// repeat the same state again (a memo hit: one state digest and a
// table lookup).
func BenchmarkStateVerify(b *testing.B) {
	e := benchProofLedger(b)
	lsp := e.lsp.Public()
	b.Run("cold", func(b *testing.B) {
		states := make([]*SignedState, b.N)
		for i := range states {
			st := SignedState{URI: "ledger://bench", JSN: uint64(i), Timestamp: int64(i)}
			if err := st.sign(e.lsp); err != nil {
				b.Fatal(err)
			}
			states[i] = &st
		}
		b.ResetTimer()
		for _, st := range states {
			if err := st.Verify(lsp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("repeat", func(b *testing.B) {
		st, err := e.ledger.State()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Verify(lsp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
