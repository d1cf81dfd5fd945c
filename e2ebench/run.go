package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"ledgerdb/internal/client"
)

// outcome is everything one run of a workload measured.
type outcome struct {
	setup []float64 // seconds per set-up

	warm, main, tail, gate phaseStats
	mainWin, tailWin       [2]int64
	followWin              [2]int64
	catchup                []float64 // records/s of each catch-up
	follow                 followerReport

	storageAmp     float64
	hostCPUNs      int64
	clientCPUNs    int64
	rssMiB         float64
	genDelta       uint64
	checks, failed int // run-level checks: host exits, follower level, reopen

	spans []span // traced runs: load generator and host spans
}

func (r *outcome) attempted() int {
	return r.warm.attempted + r.main.attempted + r.tail.attempted + r.gate.attempted + r.checks
}

func (r *outcome) failedOps() int {
	return r.warm.failed + r.main.failed + r.tail.failed + r.gate.failed + r.failed
}

func (r *outcome) check(what string, err error) {
	r.checks++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "e2ebench: check %s: %v\n", what, err)
	}
}

// removeData deletes a run's data directory and waits until the file
// system has absorbed the deletion, so it does not slow the next phase.
func removeData(dir string) error {
	err := os.RemoveAll(dir)
	syscall.Sync()
	return err
}

func selfCPUNs() int64 {
	cpu, _ := cpuNs()
	return cpu
}

// runWorkload sets the system up (o.setups times, keeping the last),
// runs the timed phase, the follower phases and the correctness gate.
func runWorkload(o options, traced bool) (*outcome, error) {
	out := &outcome{}
	preload := 0
	if o.workload != "append" {
		preload = history
	}
	lsp, _, user := benchKeys(fmt.Sprint(o.seed))
	base := &client.Client{LSP: lsp.Public(), URI: ledgerURI, Key: user, Timeout: time.Minute}
	errs := &errLog{}
	var rec *recorder
	tag := "u"
	if traced {
		rec, tag = &recorder{}, "t"
	}
	spansPath := ""
	if traced {
		spansPath = filepath.Join(o.work, "host-spans.jsonl")
	}

	lineage := preloadLineage(o.seed, preload)
	var h *hostProc
	var cs []*caller
	var dir string
	for i := 0; i < o.setups; i++ {
		dir = filepath.Join(o.work, fmt.Sprintf("data-%s%d", tag, i))
		syscall.Sync() // earlier writes are not this set-up's to flush
		t0 := time.Now()
		var err error
		h, err = startHost(dir, o.seed, preload, spansPath)
		if err != nil {
			return nil, err
		}
		base.BaseURL = h.url
		cs = newCallers(base, user, o.seed, rec, errs)
		out.warm = phaseStats{}
		warmUp(o, h, cs, lineage, &out.warm)
		out.setup = append(out.setup, time.Since(t0).Seconds())
		// The timed phase starts with the set-up's writes on disk, not
		// in the page cache waiting for write-back. The flush is left
		// out of setup_s: its length depends on the disk, not on the
		// system under test.
		syscall.Sync()
		if i < o.setups-1 {
			if err := h.stop(); err != nil {
				return nil, err
			}
			if err := removeData(dir); err != nil {
				return nil, err
			}
		}
	}
	defer removeData(dir) // a failed run reports its own error
	fmt.Fprintf(os.Stderr, "e2ebench: set-up times (s): %.3f\n", out.setup)

	first, n := h.ready.FirstJSN, h.ready.PreloadEnd-h.ready.FirstJSN
	dur := time.Duration(o.seconds * float64(time.Second))

	// Mixed: the follower catches up over the history before the timed
	// phase and keeps pulling through it.
	if o.workload == "mixed" {
		out.followWin[0] = now()
		if err := catchUp(h, out); err != nil {
			return nil, err
		}
	}

	u0, err := h.usage()
	if err != nil {
		return nil, err
	}
	cpu0 := selfCPUNs()
	switch o.workload {
	case "append":
		out.main, out.mainWin = phase(cs, dur, func(c *caller, s *phaseStats, deadline time.Time) {
			for time.Now().Before(deadline) {
				c.append(s)
			}
		})
	case "verify":
		out.main, out.mainWin = phase(cs, dur, func(c *caller, s *phaseStats, deadline time.Time) {
			g := newReadGen(o.seed, c.idx, first, n)
			for time.Now().Before(deadline) {
				if op := g.next(); op.query {
					c.query(s, op.clue, lineage[op.clue])
				} else {
					c.verify(s, preloaded(o.seed, first, op.jsn))
				}
			}
		})
	case "mixed":
		win := &recent{}
		for j := max(first, first+n-recentWindow); j < first+n; j++ {
			win.push(preloaded(o.seed, first, j))
		}
		for _, rc := range out.warm.receipts {
			win.push(rc)
		}
		out.main, out.mainWin = phase(cs, dur, func(c *caller, s *phaseStats, deadline time.Time) {
			if c.idx == 0 {
				for time.Now().Before(deadline) {
					if rc, ok := c.append(s); ok {
						win.push(rc)
					}
				}
				return
			}
			r := newRand(o.seed, streamRead+uint64(c.idx))
			for time.Now().Before(deadline) {
				c.verify(s, win.pick(r.IntN))
			}
		})
	}
	out.clientCPUNs = selfCPUNs() - cpu0
	u1, err := h.usage()
	if err != nil {
		return nil, err
	}
	out.hostCPUNs = u1.CPUNs - u0.CPUNs
	out.rssMiB = float64(u1.MaxRSSKiB) / 1024
	out.genDelta = u1.Generation - u0.Generation

	// Append and verify: the follower catches up over what the timed
	// phase left, then follows one writer for a short tail.
	if o.workload != "mixed" {
		out.followWin[0] = now()
		if err := catchUp(h, out); err != nil {
			return nil, err
		}
		out.tail, out.tailWin = phase(cs[:1], dur*3/10, func(c *caller, s *phaseStats, deadline time.Time) {
			for time.Now().Before(deadline) {
				c.append(s)
			}
		})
	}
	err = h.call("POST", "/bench/follower/level", &out.follow)
	if err == nil && !out.follow.Level {
		err = fmt.Errorf("follower ended at %+v, primary frontier %d", out.follow.Status, out.follow.Frontier)
	}
	out.check("follower level with the primary", err)
	out.followWin[1] = now()

	if rec != nil {
		out.spans = rec.snapshot()
	}
	out.check("clean close", h.stop())
	if traced {
		hostSpans, err := readSpans(spansPath)
		if err != nil {
			return nil, err
		}
		out.spans = append(out.spans, hostSpans...)
	}

	var receipts []receipt
	for _, s := range []*phaseStats{&out.warm, &out.main, &out.tail} {
		receipts = append(receipts, s.receipts...)
	}
	userBytes := int64(n)*payloadSize + out.warm.userBytes + out.main.userBytes + out.tail.userBytes
	alloc, err := allocatedBytes(dir)
	if err != nil {
		return nil, err
	}
	out.storageAmp = float64(alloc) / float64(userBytes)

	reopenGate(o, dir, base, lineage, receipts, out)
	if errs.n > 10 {
		fmt.Fprintf(os.Stderr, "e2ebench: %d failures in all\n", errs.n)
	}
	return out, nil
}

// catchUps is how many times a run starts a follower from empty and
// times its catch-up; the last follower stays and follows.
const catchUps = 3

func catchUp(h *hostProc, out *outcome) error {
	for i := 0; i < catchUps; i++ {
		if i > 0 {
			if err := h.call("POST", "/bench/follower/stop", nil); err != nil {
				return err
			}
		}
		var c catchup
		if err := h.call("POST", "/bench/follower/start", &c); err != nil {
			return err
		}
		out.catchup = append(out.catchup, float64(c.Records)/(float64(c.Ns)/1e9))
	}
	return nil
}

// warmOps is how many reads and appends each caller makes to warm up:
// enough that the append workload's set-up time is mostly this work and
// not the fixed jitter of starting a process.
const warmOps = 128

// warmUp opens every caller's connection and warms the paths the timed
// phase uses; its appends are gated like any other.
func warmUp(o options, h *hostProc, cs []*caller, lineage []int, s *phaseStats) {
	// Every caller reads before any appends, so the preloaded lineage
	// sizes still hold for the warm-up queries.
	first, n := h.ready.FirstJSN, h.ready.PreloadEnd-h.ready.FirstJSN
	for _, c := range cs {
		if n == 0 {
			break
		}
		g := newReadGen(o.seed^0x5eed, c.idx, first, n)
		for i := 0; i < warmOps; i++ {
			if op := g.next(); op.query {
				c.query(s, op.clue, lineage[op.clue])
			} else {
				c.verify(s, preloaded(o.seed, first, op.jsn))
			}
		}
	}
	for _, c := range cs {
		if o.workload == "verify" {
			break
		}
		for i := 0; i < warmOps; i++ {
			c.append(s)
		}
	}
}

// reopenGate reopens the data directory after the clean close and
// checks every receipted record verifies at its jsn with the receipt's
// tx-hash and payload, and every clue's query returns its whole lineage.
func reopenGate(o options, dir string, base *client.Client, lineage []int, receipts []receipt, out *outcome) {
	h, err := startHost(dir, o.seed, 0, "")
	out.check("reopen", err)
	if err != nil {
		return
	}
	cli := base.Clone()
	cli.BaseURL = h.url
	cs := newCallers(cli, cli.Key, o.seed, nil, &errLog{})
	want := append([]int(nil), lineage...)
	for _, rc := range receipts {
		want[rc.clue]++
	}
	sort.Slice(receipts, func(i, j int) bool { return receipts[i].jsn < receipts[j].jsn })
	for i := 1; i < len(receipts); i++ {
		if receipts[i].jsn == receipts[i-1].jsn {
			out.check("distinct receipt jsns", fmt.Errorf("two receipts for jsn %d", receipts[i].jsn))
		}
	}
	out.gate, _ = phase(cs, 0, func(c *caller, s *phaseStats, _ time.Time) {
		for i := c.idx; i < len(receipts); i += len(cs) {
			c.verify(s, receipts[i])
		}
		if o.workload == "verify" {
			return // its timed phase already checked every query's lineage
		}
		for clue := c.idx; clue < clueCount; clue += len(cs) {
			c.query(s, clue, want[clue])
		}
	})
	out.check("close after reopen", h.stop())
}

// followVisible returns, for each receipt, how long after the client
// verified it the follower's verified checkpoint first covered its jsn.
func followVisible(receipts []receipt, covered [][2]int64) (dist, error) {
	var d dist
	for _, rc := range receipts {
		k := sort.Search(len(covered), func(k int) bool { return uint64(covered[k][1]) > rc.jsn })
		if k == len(covered) {
			return d, fmt.Errorf("follower never covered jsn %d", rc.jsn)
		}
		d.add(max(covered[k][0]-rc.at, 0))
	}
	return d, nil
}

// unbounded are end-to-end figures every run prints but no bound gates
// and the result line leaves out. On the 2-core machine the benchmark
// was sized on, their run-to-run spread (interquartile range over the
// median of ten runs) was 0.14 to 0.29, too close to or above 0.25, the
// largest bound a metric may carry.
var unbounded = []string{"append_p99_ms", "verify_p99_ms", "query_p99_ms"}

// endToEnd derives the end-to-end metrics. Every workload reports all of
// them; a metric outside a workload's timed phase comes from the phase
// that exercises it (see README.md):
//
//	append: append_* timed; verify_*/query_* from the reopen gate;
//	        catch-up and follow_visible from the follower tail
//	verify: verify_*/query_* timed; append_*, catch-up and
//	        follow_visible from the follower tail
//	mixed:  append_*, verify_*, follow_visible timed, catch-up before it;
//	        query_* from the reopen gate
func endToEnd(workload string, r *outcome) map[string]metric {
	appends, verifies, queries := &r.main, &r.main, &r.gate
	appendSecs := float64(r.mainWin[1]-r.mainWin[0]) / 1e9
	follow := r.main.receipts
	switch workload {
	case "append":
		verifies = &r.gate
		follow = r.tail.receipts
	case "verify":
		appends, queries = &r.tail, &r.main
		appendSecs = float64(r.tailWin[1]-r.tailWin[0]) / 1e9
		follow = r.tail.receipts
	}
	m := map[string]metric{}
	m["setup_s"] = metric{median(r.setup), "s"}
	m["append_ops_s"] = metric{float64(appends.appends) / appendSecs, "ops/s"}
	putLatency(m, "append", &appends.appendLat)
	putLatency(m, "verify", &verifies.verifyLat)
	putLatency(m, "query", &queries.queryLat)
	m["catchup_rec_s"] = metric{median(r.catchup), "records/s"}
	vis, err := followVisible(follow, r.follow.Covered)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: follow_visible:", err)
	}
	putLatency(m, "follow_visible", &vis)
	m["storage_amp"] = metric{r.storageAmp, "ratio"}
	ops := float64(r.main.appends + r.main.reads)
	m["server_cpu_us_per_op"] = metric{float64(r.hostCPUNs) / 1e3 / ops, "us"}
	m["client_cpu_us_per_op"] = metric{float64(r.clientCPUNs) / 1e3 / ops, "us"}
	m["server_rss_mb"] = metric{r.rssMiB, "MiB"}
	return m
}

func putLatency(m map[string]metric, name string, d *dist) {
	p99, q := d.p99()
	if q != 0.99 {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %d samples support only p%.2f, reported as p99\n", name, len(d.ms), 100*q)
	}
	m[name+"_p50_ms"] = metric{d.p50(), "ms"}
	m[name+"_p99_ms"] = metric{p99, "ms"}
}
