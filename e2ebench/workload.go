package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"ledgerdb/internal/client"
	"ledgerdb/internal/hashutil"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/sig"
)

// callers is the load generator's closed-loop concurrency: one caller
// per core of the 2-core machine the benchmark was sized on.
const callers = 2

// ---- host process ------------------------------------------------------

type hostProc struct {
	cmd   *exec.Cmd
	stdin io.Closer
	ready hostReady
	url   string
	ctl   *http.Client
}

func startHost(dir string, seed uint64, preload int, spans string) (*hostProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"host", "-dir", dir, "-seed", fmt.Sprint(seed), "-preload", fmt.Sprint(preload)}
	if spans != "" {
		args = append(args, "-spans", spans)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h := &hostProc{cmd: cmd, stdin: stdin, ctl: &http.Client{Timeout: 150 * time.Second}}
	line, err := bufio.NewReader(stdout).ReadBytes('\n')
	if err == nil {
		err = json.Unmarshal(line, &h.ready)
	}
	if err != nil {
		stdin.Close()
		cmd.Wait() // the host failed to start; its own error is on stderr
		return nil, fmt.Errorf("host did not start: %w", err)
	}
	h.url = "http://" + h.ready.Addr
	return h, nil
}

// stop closes the host cleanly and waits for it to exit.
func (h *hostProc) stop() error {
	h.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- h.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("host exit: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		h.cmd.Process.Kill()
		<-done
		return errors.New("host did not close within 60s")
	}
}

func (h *hostProc) call(method, path string, out any) error {
	req, err := http.NewRequest(method, h.url+path, nil)
	if err != nil {
		return err
	}
	resp, err := h.ctl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

func (h *hostProc) usage() (usage, error) {
	var u usage
	err := h.call("GET", "/bench/usage", &u)
	return u, err
}

// ---- callers -----------------------------------------------------------

// receipt is what a caller keeps of an acknowledged append: enough to
// check the record after the data directory is reopened.
type receipt struct {
	jsn     uint64
	tx      hashutil.Digest // zero for preloaded records (no client receipt)
	clue    int
	payload []byte
	at      int64 // unix ns when the receipt was verified
}

// phaseStats is what one caller observed in one phase.
type phaseStats struct {
	appendLat, verifyLat, queryLat dist

	appends, reads, attempted, failed int
	userBytes                         int64
	groupSizes                        []float64
	receipts                          []receipt

	// Traced runs only: client-side time outside the round trips (µs).
	sign, receiptCheck, proofCheck, queryCheck []float64
}

func (s *phaseStats) merge(o *phaseStats) {
	s.appendLat.merge(&o.appendLat)
	s.verifyLat.merge(&o.verifyLat)
	s.queryLat.merge(&o.queryLat)
	s.appends += o.appends
	s.reads += o.reads
	s.attempted += o.attempted
	s.failed += o.failed
	s.userBytes += o.userBytes
	s.groupSizes = append(s.groupSizes, o.groupSizes...)
	s.receipts = append(s.receipts, o.receipts...)
	s.sign = append(s.sign, o.sign...)
	s.receiptCheck = append(s.receiptCheck, o.receiptCheck...)
	s.proofCheck = append(s.proofCheck, o.proofCheck...)
	s.queryCheck = append(s.queryCheck, o.queryCheck...)
}

// errLog prints the first few failures of a run to stderr.
type errLog struct {
	mu sync.Mutex
	n  int
}

func (l *errLog) report(what string, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	if l.n <= 10 {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", what, err)
	}
}

// caller is one closed-loop client goroutine with its own keep-alive
// connection.
type caller struct {
	idx  int
	seed uint64
	cli  *client.Client
	tr   *callerTransport // nil when untraced
	key  *sig.KeyPair
	next uint64 // index of the caller's next append input
	errs *errLog
}

func newCallers(base *client.Client, key *sig.KeyPair, seed uint64, rec *recorder, errs *errLog) []*caller {
	out := make([]*caller, callers)
	var ids sync.Mutex
	var id uint64
	nextID := func() uint64 {
		ids.Lock()
		defer ids.Unlock()
		id++
		return id
	}
	for i := range out {
		cli := base.Clone()
		var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1}
		var tr *callerTransport
		if rec != nil {
			tr = &callerTransport{base: rt, rec: rec, nextID: nextID}
			rt = tr
		}
		cli.HTTP = &http.Client{Transport: rt}
		out[i] = &caller{idx: i, seed: seed, cli: cli, tr: tr, key: key, errs: errs}
	}
	return out
}

func (c *caller) fail(s *phaseStats, what string, err error) {
	s.failed++
	c.errs.report(what, err)
}

// append signs (π_c) and submits one seeded request, verifying the
// receipt (π_s) exactly as client.Append does.
func (c *caller) append(s *phaseStats) (receipt, bool) {
	stream := streamAppend + uint64(c.idx)
	req, clue := newRequest(c.seed, stream, c.next)
	c.next++
	s.attempted++
	if c.tr != nil {
		c.tr.take()
	}
	t0 := time.Now()
	err := req.Sign(c.key)
	t1 := time.Now()
	var rc *journal.Receipt
	if err == nil {
		rc, err = c.cli.SubmitRequest(req)
	}
	t2 := time.Now()
	if err != nil {
		c.fail(s, "append", err)
		return receipt{}, false
	}
	s.appendLat.add(t2.Sub(t0).Nanoseconds())
	s.appends++
	s.userBytes += int64(len(req.Payload))
	s.groupSizes = append(s.groupSizes, float64(max(len(rc.GroupHashes), 1)))
	if c.tr != nil {
		s.sign = append(s.sign, us(t1.Sub(t0).Nanoseconds()))
		s.receiptCheck = append(s.receiptCheck, us(t2.Sub(t1).Nanoseconds()-c.tr.take()))
	}
	r := receipt{jsn: rc.JSN, tx: rc.TxHash, clue: clue, payload: req.Payload, at: t2.UnixNano()}
	s.receipts = append(s.receipts, r)
	return r, true
}

// verify fetches and locally verifies the existence proof of want.jsn
// with its payload, and checks the record is the one expected.
func (c *caller) verify(s *phaseStats, want receipt) {
	s.attempted++
	if c.tr != nil {
		c.tr.take()
	}
	t0 := time.Now()
	rec, payload, err := c.cli.VerifyExistence(want.jsn, true)
	t1 := time.Now()
	if err == nil {
		err = checkRecord(rec, payload, want)
	}
	if err != nil {
		c.fail(s, fmt.Sprintf("verify jsn %d", want.jsn), err)
		return
	}
	s.verifyLat.add(t1.Sub(t0).Nanoseconds())
	s.reads++
	if c.tr != nil {
		s.proofCheck = append(s.proofCheck, us(t1.Sub(t0).Nanoseconds()-c.tr.take()))
	}
}

func checkRecord(rec *journal.Record, payload []byte, want receipt) error {
	switch {
	case rec.JSN != want.jsn:
		return fmt.Errorf("proof is for jsn %d", rec.JSN)
	case want.tx != (hashutil.Digest{}) && rec.TxHash() != want.tx:
		return errors.New("tx-hash differs from the receipt's")
	case len(rec.Clues) != 1 || rec.Clues[0] != clueName(want.clue):
		return fmt.Errorf("clues %v, want [%s]", rec.Clues, clueName(want.clue))
	case !bytes.Equal(payload, want.payload):
		return errors.New("payload differs from the one appended")
	}
	return nil
}

// query runs a verified clue query and checks it returns the clue's
// whole lineage.
func (c *caller) query(s *phaseStats, clue, want int) {
	s.attempted++
	if c.tr != nil {
		c.tr.take()
	}
	t0 := time.Now()
	recs, err := c.cli.QueryRecords(ledger.Query{Kind: ledger.QueryByPrefix, Prefix: clueName(clue)})
	t1 := time.Now()
	if err == nil && len(recs) != want {
		err = fmt.Errorf("%d records, want the lineage's %d", len(recs), want)
	}
	if err == nil {
		for _, r := range recs {
			if len(r.Clues) != 1 || r.Clues[0] != clueName(clue) {
				err = fmt.Errorf("record %d has clues %v", r.JSN, r.Clues)
				break
			}
		}
	}
	if err != nil {
		c.fail(s, "query "+clueName(clue), err)
		return
	}
	s.queryLat.add(t1.Sub(t0).Nanoseconds())
	s.reads++
	if c.tr != nil {
		s.queryCheck = append(s.queryCheck, us(t1.Sub(t0).Nanoseconds()-c.tr.take()))
	}
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// preloaded returns the expected content of a preloaded jsn.
func preloaded(seed uint64, first, jsn uint64) receipt {
	clue, payload := inputAt(seed, streamPreload, jsn-first)
	return receipt{jsn: jsn, clue: clue, payload: payload}
}

// recent is the mixed workload's window of newest receipts, shared by
// the writer and the reader.
type recent struct {
	mu   sync.Mutex
	ring [recentWindow]receipt
	n    int
}

func (r *recent) push(rc receipt) {
	r.mu.Lock()
	r.ring[r.n%recentWindow] = rc
	r.n++
	r.mu.Unlock()
}

// pick returns one of the newest receipts, chosen by draw.
func (r *recent) pick(draw func(int) int) receipt {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring[draw(min(r.n, recentWindow))]
}

// ---- phases ------------------------------------------------------------

// phase runs fn on every caller, each on its own goroutine, and merges
// what they observed. fn runs until the deadline it is given.
func phase(cs []*caller, d time.Duration, fn func(c *caller, s *phaseStats, deadline time.Time)) (phaseStats, [2]int64) {
	stats := make([]phaseStats, len(cs))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c, &stats[i], deadline)
		}()
	}
	wg.Wait()
	var all phaseStats
	for i := range stats {
		all.merge(&stats[i])
	}
	return all, [2]int64{start.UnixNano(), now()}
}
