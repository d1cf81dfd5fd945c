package main

import (
	"context"
	"path/filepath"
	"time"

	"ledgerdb/internal/client"
	"ledgerdb/internal/index"
	"ledgerdb/internal/ledger"
	"ledgerdb/internal/replica"
	"ledgerdb/internal/server"
	"ledgerdb/internal/sig"
	"ledgerdb/internal/streamfs"
	"ledgerdb/internal/tledger"
	"ledgerdb/internal/tsa"
)

// wiring is the system under test, built from public constructors the
// way `ledgerdb-server -dir` builds a single-node service. Every result
// carries it as the stated flush policy; a change to how the server is
// wired must change this file and this string together.
const wiring = "ledger.Open PipelineDepth=256 SyncEvery=0 (engine); " +
	"streamfs.OpenDisk SyncEvery=256 (per stream); OpenDiskBlobs; " +
	"index.Open on its own OpenDisk SyncEvery=256; " +
	"server.NewWithOptions MaxInFlight=1024 RequestTimeout=30s; " +
	"TSA pool of 2 + T-Ledger, Finalize every 1s; " +
	"follower: ApplyOnly ledger on memory stores, replica.ClientSource over loopback, default replica.Config"

const (
	ledgerURI = "ledger://bench"
	deltaTau  = time.Second
)

// probes are the optional span wrappers a traced run installs at the
// layer boundaries. Nil fields leave the production value untouched.
type probes struct {
	fs     func(streamfs.FileSystem, string) streamfs.FileSystem
	blobs  func(streamfs.BlobStore) streamfs.BlobStore
	source func(replica.Source) replica.Source
}

// primary is one disk-backed ledger service.
type primary struct {
	led  *ledger.Ledger
	ix   *index.Index
	srv  *server.Server
	stop context.CancelFunc
	done chan struct{}
}

func openPrimary(dir string, lsp, dba *sig.KeyPair, p probes) (*primary, error) {
	clock := func() int64 { return time.Now().UnixNano() }
	pool := tsa.NewPool(
		tsa.New("tsa-1", tsa.Options{Clock: clock}),
		tsa.New("tsa-2", tsa.Options{Clock: clock}),
	)
	tl, err := tledger.New(tledger.Config{Clock: clock, Tolerance: int64(deltaTau), TSA: pool})
	if err != nil {
		return nil, err
	}
	diskOpts := func(label string) streamfs.DiskOptions {
		o := streamfs.DiskOptions{SyncEvery: 256}
		if p.fs != nil {
			o.FS = p.fs(streamfs.OSFileSystem(), label)
		}
		return o
	}
	store, err := streamfs.OpenDisk(filepath.Join(dir, "streams"), diskOpts(""))
	if err != nil {
		return nil, err
	}
	blobs, err := streamfs.OpenDiskBlobs(filepath.Join(dir, "blobs"))
	if err != nil {
		return nil, err
	}
	if p.blobs != nil {
		blobs = p.blobs(blobs)
	}
	led, err := ledger.Open(ledger.Config{
		URI:           ledgerURI,
		FractalHeight: 15,
		BlockSize:     128,
		LSP:           lsp,
		DBA:           dba.Public(),
		Store:         store,
		Blobs:         blobs,
		Clock:         clock,
		PipelineDepth: 256,
	})
	if err != nil {
		return nil, err
	}
	ixStore, err := streamfs.OpenDisk(filepath.Join(dir, "index"), diskOpts("index"))
	if err != nil {
		led.Close()
		return nil, err
	}
	ix, err := index.Open(led, ixStore)
	if err != nil {
		led.Close()
		return nil, err
	}
	srv := server.NewWithOptions(led, tl, server.Options{MaxInFlight: 1024, RequestTimeout: 30 * time.Second})
	srv.Index = ix

	ctx, cancel := context.WithCancel(context.Background())
	pr := &primary{led: led, ix: ix, srv: srv, stop: cancel, done: make(chan struct{})}
	go func() {
		defer close(pr.done)
		t := time.NewTicker(deltaTau)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				tl.Finalize() // a failed round is retried on the next tick, as the server does
			}
		}
	}()
	return pr, nil
}

// close drains the HTTP surface and closes the engine, committing every
// admitted group, as the server does on SIGTERM.
func (p *primary) close(ctx context.Context) error {
	p.stop()
	<-p.done
	if err := p.srv.Shutdown(ctx); err != nil {
		return err
	}
	return p.led.Close()
}

// follower is one apply-only read replica pulling from a primary's HTTP
// listener, wired as ledgerdb.Stack wires its followers except that the
// transport is the hardened client instead of an in-process source.
type follower struct {
	led    *ledger.Ledger
	puller *replica.Puller
	stop   context.CancelFunc
	done   chan struct{}
}

func startFollower(primaryURL string, lsp, dba *sig.KeyPair, p probes) (*follower, error) {
	led, err := ledger.Open(ledger.Config{
		URI:           ledgerURI,
		FractalHeight: 15,
		BlockSize:     128,
		Clock:         func() int64 { return time.Now().UnixNano() },
		ApplyOnly:     true,
		PrimaryLSP:    lsp.Public(),
		DBA:           dba.Public(),
		Store:         streamfs.NewMemory(),
		Blobs:         streamfs.NewMemoryBlobs(),
	})
	if err != nil {
		return nil, err
	}
	src := replica.ClientSource(&client.Client{BaseURL: primaryURL, LSP: lsp.Public(), URI: ledgerURI})
	if p.source != nil {
		src = p.source(src)
	}
	pl, err := replica.New(replica.Config{Source: src, Ledger: led})
	if err != nil {
		led.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &follower{led: led, puller: pl, stop: cancel, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		pl.Run(ctx) // returns ctx.Err() once stopped; nothing else to report
	}()
	return f, nil
}

func (f *follower) close() error {
	f.stop()
	<-f.done
	return f.led.Close()
}
