package benchkit

import (
	"fmt"
	"time"

	"ledgerdb/internal/baseline/fabricsim"
	"ledgerdb/internal/ledger"
)

// Figure 10: application-level comparison between LedgerDB and the
// Hyperledger-Fabric simulator on the two §VI-D workloads — data
// notarization (blob proofs under unique ids) and data lineage (clue /
// key version tracking).
//
// Throughput runs disable Fabric's ordering delay and measure the
// signature-bound pipeline; latency runs enable it (scaled from the
// paper's ~1.2 s Kafka batch to fabricOrderingDelay to keep the harness
// fast — the constant is printed with the table).
//
// The lineage experiments additionally model storage random-read latency
// with ONE shared constant applied per random read: LedgerDB touches m
// journals at random jsns, Fabric reads the key's history in a single
// sequential access — exactly the asymmetry §VI-D uses to explain the
// Figure 10(c) crossover near 50 entries. The in-memory substrate has no
// real I/O, so the constant makes the access-pattern difference visible.
const (
	fabricOrderingDelay = 50 * time.Millisecond
	fabricQueryOverhead = 15 * time.Millisecond // chaincode query round trip
	randomReadLatency   = 200 * time.Microsecond
)

// Fig10a: notarization Append throughput (256B payloads) vs committed
// volume.
func Fig10a(full bool) *Table {
	volumes := []int{1 << 7, 1 << 9, 1 << 11}
	if full {
		volumes = append(volumes, 1<<13)
	}
	t := &Table{
		Title:  "Figure 10(a): notarization Append TPS (256B payloads)",
		Note:   "paper shape: LedgerDB ~20x Fabric; both roughly flat in volume",
		Header: append([]string{"system"}, labels(volumes)...),
	}
	ldbRow := []string{"LedgerDB"}
	fabRow := []string{"Fabric"}
	for _, n := range volumes {
		tl, err := NewTestLedger("ledger://fig10a", 15, 128)
		if err != nil {
			panic(err)
		}
		reqs := make([]func() error, n)
		for i := 0; i < n; i++ {
			payload := Payload("fig10a", i, 256)
			id := fmt.Sprintf("doc-%d", i)
			req, err := tl.Request(payload, []string{id}, nil)
			if err != nil {
				panic(err)
			}
			reqs[i] = func() error { _, e := tl.L.Append(req); return e }
		}
		start := time.Now()
		for _, do := range reqs {
			if err := do(); err != nil {
				panic(err)
			}
		}
		ldbRow = append(ldbRow, Throughput(n, time.Since(start)))
		mustClose(tl.L)

		fab := fabricsim.New(fabricsim.Config{}) // no ordering delay: pipeline cost
		start = time.Now()
		for i := 0; i < n; i++ {
			if _, err := fab.Submit(fmt.Sprintf("doc-%d", i), Payload("fig10a", i, 256)); err != nil {
				panic(err)
			}
		}
		fabRow = append(fabRow, Throughput(n, time.Since(start)))
	}
	t.AddRow(ldbRow...)
	t.AddRow(fabRow...)
	return t
}

// Fig10b: notarization verification latency (4KB payloads) vs volume.
func Fig10b(full bool) *Table {
	volumes := []int{1 << 7, 1 << 9, 1 << 11}
	if full {
		volumes = append(volumes, 1<<13)
	}
	t := &Table{
		Title: "Figure 10(b): notarization verify latency (4KB payloads)",
		Note: fmt.Sprintf("Fabric read-path re-gathers endorsements after a %v ordering round trip (paper: ~1.2s); LedgerDB verifies an anchored fam proof",
			fabricOrderingDelay),
		Header: append([]string{"system"}, labels(volumes)...),
	}
	ldbRow := []string{"LedgerDB"}
	fabRow := []string{"Fabric"}
	const probes = 20
	for _, n := range volumes {
		tl, err := NewTestLedger("ledger://fig10b", 15, 128)
		if err != nil {
			panic(err)
		}
		var jsns []uint64
		for i := 0; i < n; i++ {
			r, err := tl.Append(Payload("fig10b", i, 4<<10), fmt.Sprintf("doc-%d", i))
			if err != nil {
				panic(err)
			}
			jsns = append(jsns, r.JSN)
		}
		start := time.Now()
		for p := 0; p < probes; p++ {
			jsn := jsns[p*len(jsns)/probes]
			proof, err := tl.L.ProveExistence(jsn, true)
			if err != nil {
				panic(err)
			}
			if _, err := ledger.VerifyExistence(proof, tl.LSP.Public()); err != nil {
				panic(err)
			}
		}
		ldbRow = append(ldbRow, Latency(time.Since(start), probes))
		mustClose(tl.L)

		// Fabric: a verified read is GetState after the tx's ordering
		// round; the paper measures end-to-end retrieval+verification,
		// which includes the consensus wait for freshness.
		fab := fabricsim.New(fabricsim.Config{OrderingDelay: 0})
		for i := 0; i < n; i++ {
			if _, err := fab.Submit(fmt.Sprintf("doc-%d", i), Payload("fig10b", i, 4<<10)); err != nil {
				panic(err)
			}
		}
		start = time.Now()
		for p := 0; p < probes; p++ {
			key := fmt.Sprintf("doc-%d", p*n/probes)
			if _, err := fab.GetState(key); err != nil {
				panic(err)
			}
		}
		elapsed := time.Since(start) + probes*fabricOrderingDelay
		fabRow = append(fabRow, Latency(elapsed, probes))
	}
	t.AddRow(ldbRow...)
	t.AddRow(fabRow...)
	return t
}

// Fig10c: lineage verification throughput vs clue entry count. LedgerDB
// pays a random read per entry; Fabric reads the key history in one
// sequential access — so their curves converge/cross near ~50 entries.
func Fig10c(full bool) *Table {
	entries := []int{1, 5, 10, 50, 100}
	if full {
		entries = append(entries, 200)
	}
	t := &Table{
		Title: "Figure 10(c): lineage verification TPS vs clue entries",
		Note: fmt.Sprintf("I/O model: %v per random read (m reads for LedgerDB, 1 sequential for Fabric), %v per Fabric chaincode query; paper shape: curves converge/cross near ~50 entries",
			randomReadLatency, fabricQueryOverhead),
		Header: append([]string{"system"}, intLabels(entries)...),
	}
	ldbRow := []string{"LedgerDB"}
	fabRow := []string{"Fabric"}
	const clues = 32
	for _, m := range entries {
		tl, err := NewTestLedger("ledger://fig10c", 15, 128)
		if err != nil {
			panic(err)
		}
		for c := 0; c < clues; c++ {
			key := fmt.Sprintf("key-%d", c)
			for v := 0; v < m; v++ {
				if _, err := tl.Append(Payload(key, v, 1024), key); err != nil {
					panic(err)
				}
			}
		}
		probes := 200 / m
		if probes < 10 {
			probes = 10
		}
		start := time.Now()
		for p := 0; p < probes; p++ {
			key := fmt.Sprintf("key-%d", p%clues)
			b, err := tl.L.ProveClue(key, 0, 0)
			if err != nil {
				panic(err)
			}
			if _, err := ledger.VerifyClue(b, tl.LSP.Public()); err != nil {
				panic(err)
			}
		}
		// m random journal reads per probe.
		elapsed := time.Since(start) + time.Duration(probes*m)*randomReadLatency
		ldbRow = append(ldbRow, Throughput(probes, elapsed))
		mustClose(tl.L)

		fab := fabricsim.New(fabricsim.Config{})
		for c := 0; c < clues; c++ {
			key := fmt.Sprintf("key-%d", c)
			for v := 0; v < m; v++ {
				if _, err := fab.Submit(key, Payload(key, v, 1024)); err != nil {
					panic(err)
				}
			}
		}
		start = time.Now()
		for p := 0; p < probes; p++ {
			if _, err := fab.ReadHistory(fmt.Sprintf("key-%d", p%clues)); err != nil {
				panic(err)
			}
		}
		// One chaincode query round trip and one sequential read per probe.
		elapsed = time.Since(start) + time.Duration(probes)*(randomReadLatency+fabricQueryOverhead)
		fabRow = append(fabRow, Throughput(probes, elapsed))
	}
	t.AddRow(ldbRow...)
	t.AddRow(fabRow...)
	return t
}

// Fig10d: lineage verification latency vs clue entries (ordering delay
// applied to Fabric's end-to-end path).
func Fig10d(full bool) *Table {
	entries := []int{1, 5, 10, 50, 100}
	if full {
		entries = append(entries, 200)
	}
	t := &Table{
		Title: "Figure 10(d): lineage verification latency vs clue entries",
		Note: fmt.Sprintf("Fabric end-to-end includes one %v ordering round; paper reports ~300x gap on average",
			fabricOrderingDelay),
		Header: append([]string{"system"}, intLabels(entries)...),
	}
	ldbRow := []string{"LedgerDB"}
	fabRow := []string{"Fabric"}
	for _, m := range entries {
		tl, err := NewTestLedger("ledger://fig10d", 15, 128)
		if err != nil {
			panic(err)
		}
		key := "asset"
		for v := 0; v < m; v++ {
			if _, err := tl.Append(Payload(key, v, 1024), key); err != nil {
				panic(err)
			}
		}
		const reps = 10
		start := time.Now()
		for r := 0; r < reps; r++ {
			b, err := tl.L.ProveClue(key, 0, 0)
			if err != nil {
				panic(err)
			}
			if _, err := ledger.VerifyClue(b, tl.LSP.Public()); err != nil {
				panic(err)
			}
		}
		elapsed := time.Since(start) + time.Duration(reps*m)*randomReadLatency
		ldbRow = append(ldbRow, Latency(elapsed, reps))
		mustClose(tl.L)

		fab := fabricsim.New(fabricsim.Config{})
		for v := 0; v < m; v++ {
			if _, err := fab.Submit(key, Payload(key, v, 1024)); err != nil {
				panic(err)
			}
		}
		start = time.Now()
		for r := 0; r < reps; r++ {
			if _, err := fab.ReadHistory(key); err != nil {
				panic(err)
			}
		}
		elapsed = time.Since(start) + reps*(fabricOrderingDelay+fabricQueryOverhead+randomReadLatency)
		fabRow = append(fabRow, Latency(elapsed, reps))
	}
	t.AddRow(ldbRow...)
	t.AddRow(fabRow...)
	return t
}

func intLabels(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}
