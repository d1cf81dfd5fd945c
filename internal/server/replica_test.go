package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ledgerdb/internal/client"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/replica"
	"ledgerdb/internal/server"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/tsa"
)

// followerStack extends the primary stack with an apply-only follower
// ledger replicating over real HTTP, itself fronted by a Server.
type followerStack struct {
	*stack
	follower *ledger.Ledger
	puller   *replica.Puller
	fsrv     *httptest.Server
	fcli     *client.Client
}

func newFollowerStack(t *testing.T) *followerStack {
	t.Helper()
	s := newStack(t)
	f, err := ledger.Open(ledger.Config{
		URI:           "ledger://e2e",
		FractalHeight: 4,
		BlockSize:     8,
		Clock:         s.clock.Tick,
		ApplyOnly:     true,
		PrimaryLSP:    s.cli.LSP,
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	p, err := replica.New(replica.Config{
		Source: replica.ClientSource(s.cli),
		Ledger: f,
		Batch:  16,
	})
	if err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(server.New(f, nil))
	t.Cleanup(fsrv.Close)
	return &followerStack{
		stack:    s,
		follower: f,
		puller:   p,
		fsrv:     fsrv,
		fcli:     &client.Client{BaseURL: fsrv.URL, LSP: s.cli.LSP, URI: "ledger://e2e"},
	}
}

func (fs *followerStack) catchUp(t *testing.T) {
	t.Helper()
	ctx := t.Context()
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("follower did not catch up over HTTP")
		}
		if err := fs.puller.RunOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if fs.puller.Status().CaughtUp {
			return
		}
	}
}

// TestReplicationOverHTTP replicates through the real wire path — pull
// endpoint, sealed frames, hardened client — and then serves verified
// reads from the follower's own HTTP surface.
func TestReplicationOverHTTP(t *testing.T) {
	fs := newFollowerStack(t)
	var jsns []uint64
	for i := 0; i < 20; i++ {
		rc, err := fs.cli.Append([]byte(fmt.Sprintf("doc-%d", i)), "trail")
		if err != nil {
			t.Fatal(err)
		}
		jsns = append(jsns, rc.JSN)
	}
	fs.catchUp(t)

	if fs.follower.Size() != fs.ledger.Size() {
		t.Fatalf("follower at %d, primary at %d", fs.follower.Size(), fs.ledger.Size())
	}
	// The full client-side verification pipeline works against the
	// follower: proofs fold to the primary-signed root.
	for _, jsn := range jsns[:5] {
		if _, _, err := fs.fcli.VerifyExistence(jsn, false); err != nil {
			t.Fatalf("VerifyExistence(%d) via follower: %v", jsn, err)
		}
	}
	if _, err := fs.fcli.VerifyClue("trail", 0, 0); err != nil {
		t.Fatalf("VerifyClue via follower: %v", err)
	}
	// Batched proofs share the follower's cached checkpoint.
	if _, _, err := fs.fcli.VerifyExistenceBatch(jsns[:8], false); err != nil {
		t.Fatalf("VerifyExistenceBatch via follower: %v", err)
	}
	// The follower watermark equals the frontier once caught up.
	gen, jsn, watermark, err := fs.fcli.Health()
	if err != nil {
		t.Fatal(err)
	}
	if gen == 0 || jsn != fs.follower.Size() || watermark != jsn {
		t.Fatalf("health gen=%d jsn=%d watermark=%d, follower size %d", gen, jsn, watermark, fs.follower.Size())
	}
}

// TestFollowerStaleProofRejected maps ErrStaleCheckpoint to a retryable
// 503 with Retry-After: the journal may exist but the follower cannot
// prove past its verified checkpoint.
func TestFollowerStaleProofRejected(t *testing.T) {
	fs := newFollowerStack(t)
	for i := 0; i < 5; i++ {
		if _, err := fs.cli.Append([]byte(fmt.Sprintf("doc-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	fs.catchUp(t)
	// Advance the primary, then replicate the journals WITHOUT a new
	// checkpoint (partitioned mid-pull): the follower holds the record
	// but cannot anchor an exact-state proof for it yet.
	rc, err := fs.cli.Append([]byte("beyond"))
	if err != nil {
		t.Fatal(err)
	}
	if err := driveStaleRound(t, fs); err != nil {
		t.Fatal(err)
	}
	if fs.follower.Size() <= rc.JSN {
		t.Fatalf("follower did not apply jsn %d", rc.JSN)
	}
	resp, err := http.Get(fs.fsrv.URL + fmt.Sprintf("/v1/proof/%d", rc.JSN))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stale proof status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("stale proof reply missing Retry-After")
	}
	// The hardened client retries through it once replication resumes.
	fcli := fs.fcli.Clone()
	fcli.Retries = 5
	fcli.RetryBackoff = time.Millisecond
	done := make(chan error, 1)
	go func() {
		_, _, err := fcli.VerifyExistence(rc.JSN, false)
		done <- err
	}()
	fs.catchUp(t)
	if err := <-done; err != nil {
		t.Fatalf("proof after catch-up: %v", err)
	}
}

// TestBundleEndpoint round-trips an offline proof bundle over HTTP and
// verifies it with zero network access and a pinned TSA key.
func TestBundleEndpoint(t *testing.T) {
	s := newStack(t)
	authority := tsa.New("bundle-tsa", tsa.Options{Clock: s.clock.Now})
	var jsns []uint64
	for i := 0; i < 5; i++ {
		rc, err := s.cli.Append([]byte(fmt.Sprintf("doc-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		jsns = append(jsns, rc.JSN)
	}
	if _, err := s.ledger.AnchorTimeWith(authority.Stamp); err != nil {
		t.Fatal(err)
	}
	b, err := s.cli.FetchBundle(jsns[2], true)
	if err != nil {
		t.Fatal(err)
	}
	rec, ta, err := ledger.VerifyBundle(b, s.cli.LSP, []sig.PublicKey{authority.Public()})
	if err != nil {
		t.Fatal(err)
	}
	if rec.JSN != jsns[2] || ta == nil {
		t.Fatalf("bundle proves jsn %d, ta %v", rec.JSN, ta)
	}
	if string(b.Payload) != "doc-2" {
		t.Fatalf("bundle payload %q", b.Payload)
	}
	// Unknown jsn: 404, not 500.
	resp, err := http.Get(s.srv.URL + "/v1/bundle/9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing bundle status %d", resp.StatusCode)
	}
}

// TestPullEndpointValidation covers the pull endpoint's parameter
// hygiene: unknown streams and malformed numbers are 400s, and an
// out-of-range from yields an empty verified frame carrying the
// stream's true Base/Len (the follower's gap/lag discovery signal).
func TestPullEndpointValidation(t *testing.T) {
	s := newStack(t)
	if _, err := s.cli.Append([]byte("doc")); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"/v1/replica/pull?stream=bogus&from=0",
		"/v1/replica/pull?stream=journals&from=abc",
		"/v1/replica/pull?stream=journals&from=0&max=-1",
	} {
		resp, err := http.Get(s.srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	raw, err := s.cli.PullFrame(t.Context(), ledger.StreamJournals, 9999, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := replica.DecodeSegmentFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(f.Records) != 0 || f.Len != s.ledger.Size() || f.Offset != 9999 {
		t.Fatalf("out-of-range frame %+v", f)
	}
}

// TestHealthzJSONShape is the JSON-shape regression for satellite
// watermark fields: /healthz and /readyz must expose generation, jsn,
// and watermark as numbers, present even when zero-valued, without
// disturbing the rest of the envelope.
func TestHealthzJSONShape(t *testing.T) {
	fs := newFollowerStack(t)
	if _, err := fs.cli.Append([]byte("doc")); err != nil {
		t.Fatal(err)
	}
	fs.catchUp(t)
	for _, tc := range []struct {
		name, url string
	}{
		{"primary healthz", fs.srv.URL + "/healthz"},
		{"primary readyz", fs.srv.URL + "/readyz"},
		{"follower healthz", fs.fsrv.URL + "/healthz"},
		{"follower readyz", fs.fsrv.URL + "/readyz"},
	} {
		resp, err := http.Get(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, resp.StatusCode)
		}
		var shape map[string]json.RawMessage
		if err := json.Unmarshal(body, &shape); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, key := range []string{"generation", "jsn", "watermark"} {
			raw, ok := shape[key]
			if !ok {
				t.Fatalf("%s: missing %q in %s", tc.name, key, body)
			}
			var n uint64
			if err := json.Unmarshal(raw, &n); err != nil {
				t.Fatalf("%s: %q is not a number in %s", tc.name, key, body)
			}
		}
		if _, ok := shape["error"]; ok {
			t.Fatalf("%s: unexpected error field in %s", tc.name, body)
		}
	}
	// A lagging follower admits its staleness: jsn advances past the
	// checkpoint watermark after applying journals with no new state.
	var seen error
	for i := 0; i < 50; i++ {
		if _, err := fs.cli.Append([]byte(fmt.Sprintf("lag-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Apply journal frames only (no checkpoint): drive one round cut
	// before its install, leaving watermark behind jsn.
	seen = driveStaleRound(t, fs)
	if seen != nil {
		t.Fatal(seen)
	}
	_, jsn, watermark, err := fs.fcli.Health()
	if err != nil {
		t.Fatal(err)
	}
	if jsn <= watermark {
		t.Fatalf("expected honest staleness, got jsn=%d watermark=%d", jsn, watermark)
	}
}

// driveStaleRound advances the follower's streams without a new
// checkpoint: the round fetches the primary's checkpoint and applies the
// journals it covers, then its blocks pull fails, so the round ends
// before the install.
func driveStaleRound(t *testing.T, fs *followerStack) error {
	t.Helper()
	p, err := replica.New(replica.Config{
		Source: staleSource{replica.ClientSource(fs.cli)},
		Ledger: fs.follower,
		Batch:  1024,
	})
	if err != nil {
		return err
	}
	err = p.RunOnce(t.Context())
	if err == nil || !errors.Is(err, errNoBlocks) {
		return fmt.Errorf("stale round: %v", err)
	}
	return nil
}

var errNoBlocks = errors.New("blocks pull severed")

type staleSource struct{ replica.Source }

func (s staleSource) PullFrame(ctx context.Context, stream string, from uint64, max int) ([]byte, error) {
	if stream == ledger.StreamBlocks {
		return nil, errNoBlocks
	}
	return s.Source.PullFrame(ctx, stream, from, max)
}
