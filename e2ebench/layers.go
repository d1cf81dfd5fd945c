package main

import (
	"cmp"
	"slices"
	"strings"
)

// ledgerStreams are the engine's streams, plus the index's own store.
var ledgerStreams = []string{"journals", "digests", "blocks", "survival", "index"}

// layerMetrics splits a traced run by module. Client, server, ledger and
// streamfs figures cover the timed phase; replica figures cover the
// follower's life (catch-up plus the phase it followed).
func layerMetrics(r *outcome) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	main, follow := r.mainWin, r.followWin
	secs := float64(main[1]-main[0]) / 1e9

	// client
	put("client.sign_us.p50", p50(r.main.sign), "us")
	put("client.receipt_check_us.p50", p50(r.main.receiptCheck), "us")
	put("client.proof_check_us.p50", p50(r.main.proofCheck), "us")
	put("client.query_check_us.p50", p50(r.main.queryCheck), "us")
	rt := durations(r.spans, "client.roundtrip", main)
	put("client.roundtrip_us.p50", p50(rt), "us")
	put("client.roundtrip_us.p99", p99(rt), "us")
	put("transport_us.p50", p50(transport(r.spans, main)), "us")

	// server
	put("server.append_us.p50", p50(durations(r.spans, "server.append", main)), "us")
	put("server.append_us.p99", p99(durations(r.spans, "server.append", main)), "us")
	put("server.proof_us.p50", p50(durations(r.spans, "server.proof", main)), "us")
	put("server.query_us.p50", p50(durations(r.spans, "server.query", main)), "us")
	put("server.pull_us.p50", p50(durations(r.spans, "server.pull", follow)), "us")
	refused := 0
	for _, s := range r.spans {
		if strings.HasPrefix(s.Kind, "server.") && inWin(s, main) && (s.N == 429 || s.N == 503) {
			refused++
		}
	}
	put("server.refused", ratio(float64(refused), float64(r.main.attempted)), "ratio")

	// ledger, read from public values: receipts' group sizes and the
	// generation counter.
	put("ledger.group_size.mean", mean(r.main.groupSizes), "count")
	put("ledger.generations_per_read", ratio(float64(r.genDelta), float64(r.main.reads)), "ratio")

	// streamfs
	appends := float64(r.main.appends)
	syncs := map[string]float64{}
	written := map[string]float64{}
	var syncSpans []span
	var reads []float64
	for _, s := range r.spans {
		if !inWin(s, main) {
			continue
		}
		switch s.Kind {
		case "fs.sync":
			syncs[s.Tag]++
			syncs[""]++
			syncSpans = append(syncSpans, s)
		case "fs.write", "fs.writefile", "blob.put":
			written[s.Tag] += float64(s.N)
		case "fs.read":
			reads = append(reads, us(s.dur()))
		}
	}
	put("streamfs.syncs_per_append", ratio(syncs[""], appends), "count")
	for _, st := range ledgerStreams {
		put("streamfs.syncs_per_append."+st, ratio(syncs[st], appends), "count")
	}
	syncUs := make([]float64, len(syncSpans))
	for i, s := range syncSpans {
		syncUs[i] = us(s.dur())
	}
	put("streamfs.sync_us.p50", p50(syncUs), "us")
	put("streamfs.sync_us.p99", p99(syncUs), "us")
	put("streamfs.sync_busy_frac", float64(covered(syncSpans))/1e9/secs, "ratio")
	user := float64(r.main.userBytes)
	for _, st := range append(ledgerStreams, "blobs") {
		put("streamfs.write_bytes_per_user_byte."+st, ratio(written[st], user), "ratio")
	}
	put("streamfs.reads_per_read_op", ratio(float64(len(reads)), float64(r.main.reads)), "count")
	put("streamfs.read_us.p50", p50(reads), "us")
	put("streamfs.blob_put_us.p50", p50(durations(r.spans, "blob.put", main)), "us")
	put("streamfs.blob_put_us.p99", p99(durations(r.spans, "blob.put", main)), "us")
	put("streamfs.blob_get_us.p50", p50(durations(r.spans, "blob.get", main)), "us")

	// replica
	put("replica.pull_us.p50", p50(durations(r.spans, "replica.pull", follow)), "us")
	put("replica.state_us.p50", p50(durations(r.spans, "replica.state", follow)), "us")
	var pulled []float64
	for _, s := range r.spans {
		if s.Kind == "replica.pull" && inWin(s, follow) {
			pulled = append(pulled, float64(s.N))
		}
	}
	put("replica.records_per_pull", mean(pulled), "count")
	rep := r.follow.Span
	put("replica.rounds_per_s", ratio(float64(r.follow.Rounds), float64(rep[1]-rep[0])/1e9), "1/s")
	lag := make([]float64, len(r.follow.Lag))
	for i, l := range r.follow.Lag {
		lag[i] = float64(l)
	}
	put("replica.lag_records.p99", p99(lag), "records")
	return m
}

func inWin(s span, w [2]int64) bool { return s.Start >= w[0] && s.End <= w[1] }

// durations returns the lengths (µs) of the spans of one kind inside w.
func durations(spans []span, kind string, w [2]int64) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Kind == kind && inWin(s, w) {
			out = append(out, us(s.dur()))
		}
	}
	return out
}

// transport returns, per client round trip inside w, its length minus
// the length of the server handler span carrying the same request id
// (µs): the time spent in HTTP framing, the kernel's loopback and the
// two processes' schedulers. Spans are joined by id, never by time, so
// overlapping exchanges of concurrent callers do not mix.
func transport(spans []span, w [2]int64) []float64 {
	handler := map[uint64]int64{}
	for _, s := range spans {
		if s.ID != 0 && strings.HasPrefix(s.Kind, "server.") {
			handler[s.ID] = s.dur()
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Kind != "client.roundtrip" || s.ID == 0 || !inWin(s, w) {
			continue
		}
		if h, ok := handler[s.ID]; ok {
			out = append(out, us(max(s.dur()-h, 0)))
		}
	}
	return out
}

// covered returns the total time (ns) at least one of spans is open.
func covered(spans []span) int64 {
	iv := slices.Clone(spans)
	slices.SortFunc(iv, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var total, end int64
	for i, s := range iv {
		switch {
		case i == 0 || s.Start > end:
			total += s.End - s.Start
			end = s.End
		case s.End > end:
			total += s.End - end
			end = s.End
		}
	}
	return total
}

func p50(v []float64) float64 { x, _ := percentile(slices.Clone(v), 0.5); return x }
func p99(v []float64) float64 { x, _ := percentile(slices.Clone(v), 0.99); return x }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var t float64
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// ratio is a/b, or 0 when nothing was counted in b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
