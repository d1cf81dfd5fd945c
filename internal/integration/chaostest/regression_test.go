package chaostest

// Deterministic regressions for the network fault model, each pinning
// one end-to-end behavior the torture loop exercises probabilistically:
//
//   - TestAmbiguousLossRetriesExactlyOnce: a response lost after the
//     server committed is resubmitted under the same idempotency key and
//     dedups to a single journal.
//   - TestMiddleboxDuplicateCommitsOnce: a duplicated request (proxy
//     replay) commits once; the replayed response is byte-identical.
//   - TestCorruptReceiptSurfacesEvidenceWithoutRetry: a byte-flipped
//     receipt is rejected with TamperEvidence and never retried away.
//   - TestSlowLorisBoundedByDeadline: a response body dribbled at 10s
//     per byte cannot hold a call past its Timeout.
//   - TestRetryAfterHonoredEndToEnd: a 503 carrying Retry-After: 1
//     delays the retry by about a second instead of the millisecond
//     backoff.
//   - TestDrainLosesNoCommittedGroup: draining the server and closing a
//     pipelined ledger preserves every receipted journal across reopen.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"ledgerdb/internal/client"
	"ledgerdb/internal/journal"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/netchaos"
)

const noRepro = "deterministic regression (no repro seed)"

func TestAmbiguousLossRetriesExactlyOnce(t *testing.T) {
	s := newStack(t, noRepro)
	s.proxy.Arm(netchaos.Fault{Kind: netchaos.KindDropResponse, N: 1})
	before := s.l.Size()
	r, err := s.cli.Append([]byte("ambiguous-loss"), "reg")
	if err != nil {
		t.Fatalf("append through a lost response: %v", err)
	}
	if st := s.proxy.Stats(); st.Requests != 2 {
		t.Fatalf("proxy saw %d requests, want 2 (original + one resubmission)", st.Requests)
	}
	if got := s.l.Size(); got != before+1 {
		t.Fatalf("ledger grew by %d journals, want exactly 1", got-before)
	}
	rec, _, err := s.cli.VerifyExistence(r.JSN, false)
	if err != nil {
		t.Fatalf("verify replayed receipt: %v", err)
	}
	if rec.TxHash() != r.TxHash {
		t.Fatal("replayed receipt does not match the committed journal")
	}
}

func TestMiddleboxDuplicateCommitsOnce(t *testing.T) {
	s := newStack(t, noRepro)
	s.proxy.Arm(netchaos.Fault{Kind: netchaos.KindDuplicate, N: 1})
	before := s.l.Size()
	r, err := s.cli.Append([]byte("middlebox-replay"), "reg")
	if err != nil {
		t.Fatalf("append through a duplicating middlebox: %v", err)
	}
	if st := s.proxy.Stats(); st.Fired[netchaos.KindDuplicate] != 1 {
		t.Fatal("duplicate fault did not fire")
	}
	if got := s.l.Size(); got != before+1 {
		t.Fatalf("ledger grew by %d journals, want exactly 1 despite double delivery", got-before)
	}
	if _, _, err := s.cli.VerifyExistence(r.JSN, false); err != nil {
		t.Fatalf("verify after duplicate delivery: %v", err)
	}
}

func TestCorruptReceiptSurfacesEvidenceWithoutRetry(t *testing.T) {
	s := newStack(t, noRepro)
	// XOR 0x01 keeps the mutated byte printable, so the envelope still
	// parses and the flip is caught by the receipt checks, not by JSON.
	s.proxy.Arm(netchaos.Fault{Kind: netchaos.KindCorrupt, N: 1, Arg: 7, XOR: 0x01})
	before := s.l.Size()
	_, err := s.cli.Append([]byte("to-be-corrupted"), "reg")
	var te *client.TamperError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TamperError", err)
	}
	ev := te.Evidence
	if ev.Method != "POST" || ev.Path != "/v1/append" || ev.Check == "" {
		t.Fatalf("incomplete evidence: %+v", ev)
	}
	if len(ev.RequestBody) == 0 || len(ev.ResponseBody) == 0 {
		t.Fatal("evidence must carry the signed request and the raw tampered response")
	}
	if ev.Status != http.StatusOK {
		t.Fatalf("evidence status = %d, want 200 (tampering hid behind success)", ev.Status)
	}
	// A forged response is never retried: a lucky second attempt must
	// not paper over the evidence.
	if st := s.proxy.Stats(); st.Requests != 1 {
		t.Fatalf("proxy saw %d requests, want 1 (tamper is non-retryable)", st.Requests)
	}
	// The server did commit — tampering happened on the wire after the
	// fact — and the journal itself must remain sound.
	if got := s.l.Size(); got != before+1 {
		t.Fatalf("ledger grew by %d journals, want 1", got-before)
	}
	s.proxy.Clear()
	if _, err := s.cli.State(); err != nil {
		t.Fatalf("state after tampered exchange: %v", err)
	}
}

func TestSlowLorisBoundedByDeadline(t *testing.T) {
	s := newStack(t, noRepro)
	r, err := s.cli.Append([]byte("slow-loris-target"), "reg")
	if err != nil {
		t.Fatal(err)
	}
	// The seed append consumed ordinal 1; stall the verify that follows.
	s.proxy.Arm(netchaos.Fault{Kind: netchaos.KindSlowBody, N: 2, Arg: 1, Dur: 10 * time.Second})
	c := s.cli.Clone()
	c.Timeout = 150 * time.Millisecond
	start := time.Now()
	_, _, err = c.VerifyExistence(r.JSN, true)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("slow-loris body held the call %v past a 150ms budget", elapsed)
	}
}

func TestRetryAfterHonoredEndToEnd(t *testing.T) {
	s := newStack(t, noRepro)
	s.proxy.Arm(netchaos.Fault{Kind: netchaos.KindBurst5xx, N: 1, Arg: 1, Dur: time.Second})
	c := s.cli.Clone()
	c.MaxBackoff = 30 * time.Second // don't clamp the advertised hint
	start := time.Now()
	if _, err := c.State(); err != nil {
		t.Fatalf("state after advertised 503: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed < 900*time.Millisecond {
		t.Fatalf("recovered in %v: Retry-After: 1 was not honored", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("recovery took %v, want about 1s", elapsed)
	}
}

func TestDrainLosesNoCommittedGroup(t *testing.T) {
	s := newStack(t, noRepro)
	var receipts []*journal.Receipt
	for i := 0; i < 20; i++ {
		r, err := s.cli.Append([]byte(fmt.Sprintf("drain-%d", i)), "drain")
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		receipts = append(receipts, r)
	}
	resp, err := http.Get(s.hts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, err = http.Get(s.hts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	if _, err := s.cli.Append([]byte("late"), "drain"); err == nil {
		t.Fatal("append accepted during drain")
	}

	// Closing the ledger commits every admitted pipeline group; a reopen
	// from the same store must still hold every receipted journal.
	if err := s.l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l2, err := ledger.Open(s.cfg)
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	for _, r := range receipts {
		rec, err := l2.GetJournal(r.JSN)
		if err != nil {
			t.Fatalf("journal %d lost across drain: %v", r.JSN, err)
		}
		if rec.TxHash() != r.TxHash {
			t.Fatalf("journal %d differs from its receipt after drain", r.JSN)
		}
	}
}
