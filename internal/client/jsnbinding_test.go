package client

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// TestSingleRecordReadsBindJSN: a middlebox that rewrites the jsn in a
// proof path hands the client a perfectly valid proof for the wrong
// journal. Every single-record read must report that as tampering
// instead of accepting the other record and its payload.
func TestSingleRecordReadsBindJSN(t *testing.T) {
	c, _ := liveClient(t)
	for i := 0; i < 3; i++ {
		if _, err := c.Append([]byte(fmt.Sprintf("doc-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	const served, asked = 1, 2 // genesis is jsn 0; "doc-0" is jsn 1

	target, err := url.Parse(c.BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(target)
	forward := rp.Director
	rp.Director = func(r *http.Request) {
		forward(r)
		for _, prefix := range []string{"/v1/proof/", "/v1/proof-anchored/", "/v1/bundle/"} {
			if strings.HasPrefix(r.URL.Path, prefix) {
				r.URL.Path = prefix + strconv.Itoa(served)
			}
		}
	}
	proxy := httptest.NewServer(rp)
	t.Cleanup(proxy.Close)
	mc := c.Clone()
	mc.BaseURL = proxy.URL

	anchor, err := c.FetchAnchor()
	if err != nil {
		t.Fatal(err)
	}
	reads := map[string]func(jsn uint64) error{
		"VerifyExistence": func(jsn uint64) error {
			_, _, err := mc.VerifyExistence(jsn, true)
			return err
		},
		"VerifyExistenceAnchored": func(jsn uint64) error {
			_, _, err := mc.VerifyExistenceAnchored(jsn, anchor, true)
			return err
		},
		"FetchBundle": func(jsn uint64) error {
			_, err := mc.FetchBundle(jsn, true)
			return err
		},
	}
	for name, read := range reads {
		// The proxy is transparent for the journal it serves.
		if err := read(served); err != nil {
			t.Fatalf("%s(%d) through the proxy: %v", name, served, err)
		}
		err := read(asked)
		var te *TamperError
		if !errors.As(err, &te) {
			t.Errorf("%s(%d) accepted the proof for jsn %d: err = %v", name, asked, served, err)
			continue
		}
		if !strings.Contains(te.Evidence.Check, "jsn binding") {
			t.Errorf("%s: tamper check %q, want a jsn binding failure", name, te.Evidence.Check)
		}
	}
}
