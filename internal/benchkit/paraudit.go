package benchkit

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"ledgerdb/internal/audit"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// ParAudit measures the Dasein-complete audit (§V) with the worker-pool
// replay at increasing worker counts. The audit's per-journal cost is
// dominated by signature re-verification (π_c per record), which the
// pool computes out of order; the sequential merge only folds the
// precomputed digests into the shadow accumulators, so reports stay
// byte-identical across worker counts — the harness asserts that.
func ParAudit(full bool) *Table {
	journals := 1500
	if full {
		journals = 6000
	}
	tl, err := NewTestLedger("ledger://paraudit", 10, 64)
	if err != nil {
		panic(err)
	}
	defer mustClose(tl.L)
	for i := 0; i < journals; i++ {
		if _, err := tl.Append(Payload("paraudit", i, 256), fmt.Sprintf("K%d", i%16)); err != nil {
			panic(err)
		}
	}

	t := &Table{
		Title:  fmt.Sprintf("Parallel audit: Dasein-complete replay of %d journals, worker sweep", tl.L.Size()),
		Note:   "reports are asserted byte-identical across worker counts; speedup is vs workers=1 on THIS host",
		Header: []string{"workers", "elapsed", "journals/s", "speedup"},
	}
	cfg := audit.Config{LSP: tl.LSP.Public(), DBA: tl.DBA.Public()}
	var serial time.Duration
	var baseline *audit.Report
	for _, workers := range []int{1, 2, 4, 8} {
		cfg.Workers = workers
		start := time.Now()
		rep, err := audit.Audit(tl.L, nil, cfg)
		elapsed := time.Since(start)
		if err != nil {
			panic(err)
		}
		if workers == 1 {
			serial, baseline = elapsed, rep
		} else if !reflect.DeepEqual(rep, baseline) {
			panic(fmt.Sprintf("workers=%d produced a different report", workers))
		}
		t.AddRow(fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.1fms", elapsed.Seconds()*1000),
			Throughput(int(rep.JournalsReplayed), elapsed),
			fmt.Sprintf("%.2fx", serial.Seconds()/elapsed.Seconds()))
	}
	return t
}

// ProofQPS measures server-side existence-proof throughput under
// concurrent provers. All proofs in one commit generation share a
// single cached state signature, and the read lock covers only
// in-memory snapshotting.
func ProofQPS(full bool) *Table {
	journals := 512
	opsPer := 2000
	if full {
		journals = 4096
		opsPer = 10000
	}

	var clock int64
	l, err := ledger.Open(ledger.Config{
		URI:           "ledger://proofqps",
		FractalHeight: 10,
		BlockSize:     64,
		LSP:           sig.GenerateDeterministic("proofqps/lsp"),
		DBA:           sig.GenerateDeterministic("proofqps/dba").Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
		Clock:         func() int64 { return atomic.AddInt64(&clock, 1) },
	})
	if err != nil {
		panic(err)
	}
	defer mustClose(l)
	requester := &TestLedger{URI: "ledger://proofqps", Client: sig.GenerateDeterministic("proofqps/client")}
	for i := 0; i < journals; i++ {
		req, err := requester.Request(Payload("proofqps", i, 128), nil, nil)
		if err != nil {
			panic(err)
		}
		if _, err := l.Append(req); err != nil {
			panic(err)
		}
	}

	t := &Table{
		Title:  fmt.Sprintf("Proof throughput: ProveExistence QPS over %d journals, goroutine sweep", journals),
		Note:   "one state signature per commit generation, shared by every proof in it",
		Header: []string{"goroutines", "total ops", "elapsed", "QPS"},
	}
	size := l.Size()
	for _, par := range []int{1, 2, 4, 8} {
		ops := opsPer * par
		var next atomic.Uint64
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < par; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < opsPer; i++ {
					jsn := next.Add(1) % size
					if _, err := l.ProveExistence(jsn, false); err != nil {
						panic(err)
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		t.AddRow(fmt.Sprintf("%d", par), fmt.Sprintf("%d", ops),
			fmt.Sprintf("%.1fms", elapsed.Seconds()*1000), Throughput(ops, elapsed))
	}
	return t
}
