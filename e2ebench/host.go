package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"ledgerdb/internal/journal"
	"ledgerdb/internal/replica"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
)

// The host process runs the system under test: the primary service over
// a disk data directory and, on request, one follower. The load
// generator starts it, talks to the service over loopback HTTP, and
// drives the benchmark's own control endpoints under /bench/. Closing
// the host's stdin (or SIGTERM) closes everything cleanly and writes the
// recorded spans out.

// hostReady is the line the host prints on stdout once it serves.
type hostReady struct {
	Addr       string `json:"addr"`
	FirstJSN   uint64 `json:"first_jsn"` // first preloaded jsn
	PreloadEnd uint64 `json:"preload_end"`
}

// usage is a host resource snapshot.
type usage struct {
	CPUNs      int64  `json:"cpu_ns"`
	MaxRSSKiB  int64  `json:"maxrss_kib"`
	Generation uint64 `json:"generation"`
}

// catchup reports a follower's catch-up from empty.
type catchup struct {
	Records uint64 `json:"records"`
	Ns      int64  `json:"ns"`
}

// followerReport is the follower's record since it started.
type followerReport struct {
	Level    bool       `json:"level"`
	Frontier uint64     `json:"frontier"`
	Covered  [][2]int64 `json:"covered"` // [unix ns, checkpointed jsn] at each advance
	Lag      []int64    `json:"lag"`     // sampled PrimaryJSN - AppliedJSN
	Rounds   uint64     `json:"rounds"`
	Span     [2]int64   `json:"span"` // [start, end] of the report window
	Status   any        `json:"status"`
}

func cpuNs() (int64, int64) {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru.Utime.Nano() + ru.Stime.Nano(), ru.Maxrss
}

func benchKeys(seed string) (lsp, dba, user *sig.KeyPair) {
	return sig.GenerateDeterministic("bench/lsp/" + seed),
		sig.GenerateDeterministic("bench/dba/" + seed),
		sig.GenerateDeterministic("bench/user/" + seed)
}

func hostMain(args []string) error {
	fl := flag.NewFlagSet("host", flag.ContinueOnError)
	dir := fl.String("dir", "", "data directory")
	seed := fl.Uint64("seed", 1, "input seed")
	preload := fl.Int("preload", 0, "records to preload through Ledger.AppendBatch")
	spansPath := fl.String("spans", "", "record spans and write them here at exit")
	if err := fl.Parse(args); err != nil {
		return err
	}
	lsp, dba, user := benchKeys(fmt.Sprint(*seed))

	var rec *recorder
	var pr probes
	if *spansPath != "" {
		rec = &recorder{}
		pr = probes{
			fs: func(fs streamfs.FileSystem, label string) streamfs.FileSystem {
				return traceFS{FileSystem: fs, rec: rec, label: label}
			},
			blobs:  func(b streamfs.BlobStore) streamfs.BlobStore { return traceBlobs{BlobStore: b, rec: rec} },
			source: func(s replica.Source) replica.Source { return traceSource{Source: s, rec: rec} },
		}
	}
	p, err := openPrimary(*dir, lsp, dba, pr)
	if err != nil {
		return fmt.Errorf("open primary: %w", err)
	}
	ready := hostReady{FirstJSN: p.led.Size()}
	if err := preloadHistory(p, user, *seed, *preload); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	ready.PreloadEnd = p.led.Size()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ready.Addr = ln.Addr().String()
	h := &hostState{p: p, url: "http://" + ready.Addr, lsp: lsp, dba: dba, probes: pr}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /bench/usage", h.handleUsage)
	mux.HandleFunc("POST /bench/follower/start", h.handleFollowerStart)
	mux.HandleFunc("POST /bench/follower/level", h.handleFollowerLevel)
	mux.HandleFunc("POST /bench/follower/stop", func(w http.ResponseWriter, _ *http.Request) {
		h.stopFollower()
		writeJSON(w, struct{}{})
	})
	var svc http.Handler = p.srv
	if rec != nil {
		svc = traceHandler(svc, rec)
	}
	mux.Handle("/", svc)
	hs := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// The load generator holds stdin open for as long as the host should
	// run: it closes it to stop the host, and a load generator that dies
	// stops it the same way.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, os.Interrupt)
	stdinDone := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin) // ends at EOF or a read error; both mean stop
		close(stdinDone)
	}()
	line, _ := json.Marshal(ready)
	fmt.Println(string(line))

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-sigCh:
	case <-stdinDone:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.stopFollower()
	if err := p.close(ctx); err != nil {
		return fmt.Errorf("close primary: %w", err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if rec != nil {
		if err := writeSpans(*spansPath, rec.snapshot()); err != nil {
			return err
		}
	}
	return nil
}

// preloadHistory appends n seeded records through the engine's batch
// path: requests are signed on every core, then committed in batches.
func preloadHistory(p *primary, user *sig.KeyPair, seed uint64, n int) error {
	const batch = 1000
	for done := 0; done < n; done += batch {
		reqs := make([]*journal.Request, min(batch, n-done))
		for i := range reqs {
			reqs[i], _ = newRequest(seed, streamPreload, uint64(done+i))
		}
		if err := signAll(reqs, user); err != nil {
			return err
		}
		if _, _, err := p.led.AppendBatch(reqs); err != nil {
			return err
		}
	}
	return nil
}

func signAll(reqs []*journal.Request, key *sig.KeyPair) error {
	workers := 2
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(reqs); i += workers {
				if err := reqs[i].Sign(key); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// hostState serves the control endpoints. The driver calls them one at
// a time; mu only guards the follower pointers, never the work.
type hostState struct {
	p      *primary
	url    string
	lsp    *sig.KeyPair
	dba    *sig.KeyPair
	probes probes

	mu    sync.Mutex
	f     *follower
	watch *watcher
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) // a failed write surfaces as a decode error at the caller
}

func (h *hostState) handleUsage(w http.ResponseWriter, _ *http.Request) {
	cpu, rss := cpuNs()
	writeJSON(w, usage{CPUNs: cpu, MaxRSSKiB: rss, Generation: h.p.led.Generation()})
}

func (h *hostState) current() (*follower, *watcher) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.f, h.watch
}

// handleFollowerStart starts a follower from empty and answers once its
// verified checkpoint covers the primary's frontier as of the call.
func (h *hostState) handleFollowerStart(w http.ResponseWriter, _ *http.Request) {
	if f, _ := h.current(); f != nil {
		http.Error(w, "follower already running", http.StatusConflict)
		return
	}
	target := h.p.led.Size()
	start := now()
	f, err := startFollower(h.url, h.lsp, h.dba, h.probes)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	watch := startWatcher(f.puller)
	h.mu.Lock()
	h.f, h.watch = f, watch
	h.mu.Unlock()
	if !watch.waitCovered(target, 120*time.Second) {
		http.Error(w, fmt.Sprintf("follower did not catch up: %+v", f.puller.Status()), http.StatusInternalServerError)
		return
	}
	elapsed := now() - start
	watch.mark()
	writeJSON(w, catchup{Records: target, Ns: elapsed})
}

// handleFollowerLevel waits until the follower's verified checkpoint
// covers the primary's current frontier, then reports what the watcher
// saw since the catch-up (or the previous report).
func (h *hostState) handleFollowerLevel(w http.ResponseWriter, _ *http.Request) {
	f, watch := h.current()
	if f == nil {
		http.Error(w, "no follower", http.StatusConflict)
		return
	}
	frontier := h.p.led.Size()
	level := watch.waitCovered(frontier, 30*time.Second)
	st := f.puller.Status()
	rep := watch.report()
	rep.Level, rep.Frontier, rep.Status = level && st.AppliedJSN == frontier, frontier, st
	writeJSON(w, rep)
}

func (h *hostState) stopFollower() {
	h.mu.Lock()
	f, watch := h.f, h.watch
	h.f, h.watch = nil, nil
	h.mu.Unlock()
	if f == nil {
		return
	}
	watch.stop()
	f.close() // apply-only memory ledger: nothing to flush
}

// watcher polls the puller's status every millisecond and records when
// the verified checkpoint advances, plus a lag sample every 10 ms.
type watcher struct {
	pl      *replica.Puller
	quit    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	covered [][2]int64
	lag     [][2]int64
	rounds  [][2]int64
	since   int64 // start of the next report's window
	cond    *sync.Cond
}

func startWatcher(pl *replica.Puller) *watcher {
	w := &watcher{pl: pl, quit: make(chan struct{}), done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.run()
	return w
}

func (w *watcher) run() {
	defer close(w.done)
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	var last uint64
	for i := 0; ; i++ {
		select {
		case <-w.quit:
			return
		case <-t.C:
		}
		st := w.pl.Status()
		at := now()
		w.mu.Lock()
		if st.CheckpointJSN != last {
			last = st.CheckpointJSN
			w.covered = append(w.covered, [2]int64{at, int64(last)})
			w.cond.Broadcast()
		}
		if i%10 == 0 {
			w.lag = append(w.lag, [2]int64{at, int64(st.PrimaryJSN) - int64(st.AppliedJSN)})
			w.rounds = append(w.rounds, [2]int64{at, int64(st.Rounds)})
		}
		w.mu.Unlock()
	}
}

// waitCovered blocks until the checkpoint reaches jsn count n or the
// timeout passes.
func (w *watcher) waitCovered(n uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	})
	defer timer.Stop()
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if k := len(w.covered); k > 0 && uint64(w.covered[k-1][1]) >= n {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		w.cond.Wait()
	}
}

// mark starts the next report's window now.
func (w *watcher) mark() {
	w.mu.Lock()
	w.since = now()
	w.mu.Unlock()
}

// report returns every checkpoint advance, and the lag samples and
// rounds since the last mark or report.
func (w *watcher) report() followerReport {
	w.mu.Lock()
	defer w.mu.Unlock()
	since := w.since
	w.since = now()
	rep := followerReport{Span: [2]int64{since, w.since}}
	rep.Covered = append(rep.Covered, w.covered...)
	var r0, r1 int64 = -1, 0
	for _, l := range w.lag {
		if l[0] >= since {
			rep.Lag = append(rep.Lag, l[1])
		}
	}
	for _, r := range w.rounds {
		if r[0] >= since {
			if r0 < 0 {
				r0 = r[1]
			}
			r1 = r[1]
		}
	}
	if r0 >= 0 {
		rep.Rounds = uint64(r1 - r0)
	}
	return rep
}

func (w *watcher) stop() {
	close(w.quit)
	<-w.done
}
