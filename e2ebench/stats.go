package main

import (
	"io/fs"
	"math"
	"path/filepath"
	"slices"
	"syscall"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of samples (q in (0,1])
// and the quantile actually reported. A tail percentile is reported only
// when at least minBeyond samples lie beyond it; with fewer samples the
// highest quantile that has minBeyond samples beyond it is reported
// instead (the median, q=0.5, always stands). Samples are sorted in
// place.
func percentile(samples []float64, q float64) (value, reported float64) {
	n := len(samples)
	if n == 0 {
		return 0, q
	}
	slices.Sort(samples)
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < minBeyond {
		rank = max(n-minBeyond, 1)
		q = float64(rank) / float64(n)
	}
	return samples[rank-1], q
}

// dist is a latency distribution in milliseconds.
type dist struct {
	ms []float64
}

func (d *dist) add(ns int64) { d.ms = append(d.ms, float64(ns)/1e6) }

func (d *dist) merge(o *dist) { d.ms = append(d.ms, o.ms...) }

func (d *dist) p50() float64 { v, _ := percentile(d.ms, 0.5); return v }

// p99 returns the 99th percentile and the quantile the samples support.
func (d *dist) p99() (float64, float64) { return percentile(d.ms, 0.99) }

// median of a few values (set-up repetitions).
func median(vals []float64) float64 {
	v, _ := percentile(append([]float64(nil), vals...), 0.5)
	return v
}

// allocatedBytes sums the space allocated on disk (st_blocks × 512) to
// every regular file under dir. File lengths would under-count: a 1 KiB
// blob occupies a whole file-system block.
func allocatedBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if st, ok := info.Sys().(*syscall.Stat_t); ok {
			total += st.Blocks * 512
		}
		return nil
	})
	return total, err
}
