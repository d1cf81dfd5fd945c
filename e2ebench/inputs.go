package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"

	"ledgerdb/internal/journal"
)

// Workload inputs. Every byte the system under test receives comes from
// these generators, seeded by the run's --seed: the same seed gives the
// same payloads, clues and read targets.
const (
	payloadSize = 1024
	clueCount   = 1024
	// queryEvery: one read in this many is a clue query, the rest are
	// existence proofs (verify workload).
	queryEvery = 16
	// recentWindow is how many of the newest receipts the mixed
	// workload's reader draws its targets from.
	recentWindow = 64
)

// Independent input streams derived from one seed.
const (
	streamPreload uint64 = 1  // the preloaded history
	streamAppend  uint64 = 2  // + caller index: appends
	streamRead    uint64 = 16 // + caller index: read targets
)

func clueName(i int) string { return fmt.Sprintf("c%04d", i) }

func newRand(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// inputAt returns the i-th append input of a stream: a uniform clue
// and a 1 KiB payload. Each input has its own generator, so any input
// can be regenerated on its own to check what the ledger returns.
func inputAt(seed, stream, i uint64) (clue int, payload []byte) {
	r := newRand(seed, stream<<32|i)
	clue = r.IntN(clueCount)
	payload = make([]byte, payloadSize)
	for j := 0; j < payloadSize; j += 8 {
		binary.LittleEndian.PutUint64(payload[j:], r.Uint64())
	}
	return clue, payload
}

// preloadLineage returns how many of the first n preloaded records carry
// each clue: the seeded lineage sizes the queries must return.
func preloadLineage(seed uint64, n int) []int {
	counts := make([]int, clueCount)
	for i := 0; i < n; i++ {
		counts[newRand(seed, streamPreload<<32|uint64(i)).IntN(clueCount)]++
	}
	return counts
}

// readOp is one read target: an existence proof of jsn, or (query) the
// lineage of clue.
type readOp struct {
	query bool
	clue  int
	jsn   uint64
}

// readGen draws the verify workload's reads over the history [first,
// first+n).
type readGen struct {
	r        *rand.Rand
	first, n uint64
}

func newReadGen(seed uint64, caller int, first, n uint64) *readGen {
	return &readGen{r: newRand(seed, streamRead+uint64(caller)), first: first, n: n}
}

func (g *readGen) next() readOp {
	if g.r.IntN(queryEvery) == 0 {
		return readOp{query: true, clue: g.r.IntN(clueCount)}
	}
	return readOp{jsn: g.first + g.r.Uint64N(g.n)}
}

// nonceBase keeps the request nonces of each input stream disjoint.
func nonceBase(stream uint64) uint64 { return stream << 40 }

// newRequest builds the unsigned append request for the i-th input of a
// stream, and returns its clue.
func newRequest(seed, stream, i uint64) (*journal.Request, int) {
	clue, payload := inputAt(seed, stream, i)
	return &journal.Request{
		LedgerURI: ledgerURI,
		Type:      journal.TypeNormal,
		Clues:     []string{clueName(clue)},
		Payload:   payload,
		Nonce:     nonceBase(stream) + i,
	}, clue
}
