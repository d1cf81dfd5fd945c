package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	vals := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // reversed: percentile must sort
		}
		return v
	}
	// 1000 samples: p99 is the 990th value, with exactly 10 beyond it.
	if v, q := percentile(vals(1000), 0.99); v != 990 || q != 0.99 {
		t.Fatalf("n=1000: p99 = %v (q=%v), want 990 at q=0.99", v, q)
	}
	// 500 samples support only the 490th value.
	if v, q := percentile(vals(500), 0.99); v != 490 || q != 0.98 {
		t.Fatalf("n=500: p99 = %v (q=%v), want 490 at q=0.98", v, q)
	}
	// The median stands at any size.
	if v, q := percentile(vals(5), 0.5); v != 3 || q != 0.5 {
		t.Fatalf("n=5: p50 = %v (q=%v), want 3", v, q)
	}
	if v, _ := percentile(nil, 0.99); v != 0 {
		t.Fatalf("empty: %v", v)
	}
}

func TestTransportJoinsByIDNotTime(t *testing.T) {
	// Two callers' exchanges overlap in time; the first handler runs
	// inside the second round trip's interval and vice versa. Joining by
	// time would pair them wrongly.
	spans := []span{
		{Kind: "client.roundtrip", ID: 1, Start: 1000, End: 5000},
		{Kind: "client.roundtrip", ID: 2, Start: 1500, End: 3500},
		{Kind: "server.append", ID: 2, Start: 1700, End: 3000},
		{Kind: "server.proof", ID: 1, Start: 2000, End: 4500},
		{Kind: "server.pull", Start: 1000, End: 5000}, // untagged: never joined
		{Kind: "client.roundtrip", ID: 3, Start: 6000, End: 7000},
		{Kind: "server.proof", ID: 3, Start: 5990, End: 7010}, // clock skew: clamped at 0
	}
	got := transport(spans, [2]int64{0, 10000})
	want := []float64{1.5, 0.7, 0} // µs: 4000-2500, 2000-1300, max(1000-1020, 0)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if got := transport(spans, [2]int64{0, 4000}); len(got) != 1 || got[0] != 0.7 {
		t.Fatalf("window: got %v, want [0.7]", got)
	}
}

func TestCoveredUnionsOverlaps(t *testing.T) {
	spans := []span{{Start: 10, End: 20}, {Start: 0, End: 5}, {Start: 15, End: 30}, {Start: 16, End: 18}, {Start: 40, End: 41}}
	if got := covered(spans); got != 5+20+1 {
		t.Fatalf("covered = %d, want 26", got)
	}
}

func TestAllocatedBytesCountsBlocksNotLengths(t *testing.T) {
	dir := t.TempDir()
	// A 1-byte file occupies at least one block.
	if err := os.WriteFile(filepath.Join(dir, "small"), []byte{1}, 0o644); err != nil {
		t.Fatal(err)
	}
	small, err := allocatedBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if small < 512 {
		t.Fatalf("1-byte file counted as %d bytes, want at least one block", small)
	}
	// A sparse 1 MiB file in a subdirectory occupies (almost) nothing.
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(sub, "sparse"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(1 << 20); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	both, err := allocatedBytes(dir)
	if err != nil {
		t.Fatal(err)
	}
	if both >= small+1<<20 {
		t.Fatalf("sparse file counted by length: %d", both)
	}
}

func TestInputsAreSeeded(t *testing.T) {
	for _, stream := range []uint64{streamPreload, streamAppend, streamAppend + 1} {
		for i := uint64(0); i < 50; i++ {
			c1, p1 := inputAt(7, stream, i)
			c2, p2 := inputAt(7, stream, i)
			if c1 != c2 || !bytes.Equal(p1, p2) {
				t.Fatalf("stream %d input %d differs between two draws of one seed", stream, i)
			}
			if len(p1) != payloadSize || c1 < 0 || c1 >= clueCount {
				t.Fatalf("input %d: clue %d, %d-byte payload", i, c1, len(p1))
			}
		}
	}
	if _, p := inputAt(8, streamPreload, 0); func() bool { _, q := inputAt(7, streamPreload, 0); return bytes.Equal(p, q) }() {
		t.Fatal("seeds 7 and 8 give the same payload")
	}
	r1, r2 := newReadGen(7, 0, 1, 50000), newReadGen(7, 0, 1, 50000)
	queries := 0
	for i := 0; i < 1600; i++ {
		a, b := r1.next(), r2.next()
		if a != b {
			t.Fatalf("read %d differs between two draws of one seed: %+v vs %+v", i, a, b)
		}
		if a.query {
			queries++
		} else if a.jsn < 1 || a.jsn > 50000 {
			t.Fatalf("read target %d outside the history", a.jsn)
		}
	}
	if queries < 60 || queries > 140 {
		t.Fatalf("%d queries in 1600 reads, want about 1 in %d", queries, queryEvery)
	}
	// The lineage sizes count exactly the preloaded clues.
	counts := preloadLineage(7, 3000)
	total := 0
	for clue, n := range counts {
		total += n
		if clue == 0 {
			want := 0
			for i := uint64(0); i < 3000; i++ {
				if c, _ := inputAt(7, streamPreload, i); c == 0 {
					want++
				}
			}
			if n != want {
				t.Fatalf("lineage of c0000 = %d, want %d", n, want)
			}
		}
	}
	if total != 3000 {
		t.Fatalf("lineage sizes sum to %d, want 3000", total)
	}
}
