package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Sink categories for L1. A sink is an operation that must never run
// while the ledger's commit locks are held: it either blocks (I/O, a
// network round trip) or burns milliseconds of CPU (ECDSA signing) that
// every reader and writer would queue behind.
const (
	sinkStorage = "stream/blob I/O"
	sinkFile    = "file I/O"
	sinkNetwork = "network I/O"
	sinkSign    = "ECDSA signing"
)

// osIOFuncs are the package-level os functions counted as file I/O.
var osIOFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "Remove": true,
	"RemoveAll": true, "Mkdir": true, "MkdirAll": true, "MkdirTemp": true,
	"Rename": true, "Stat": true, "Lstat": true, "Truncate": true,
}

// streamfsIOMethods are the Store/Stream/BlobStore methods that touch
// backing storage. Length/base accessors are excluded: they read cached
// counters.
var streamfsIOMethods = map[string]bool{
	"Append": true, "Read": true, "Iterate": true, "Truncate": true,
	"Sync": true, "Stream": true, "Streams": true, "Close": true,
	"Get": true, "Put": true, "Delete": true, "Has": true,
}

// classifySink categorizes a resolved callee as a blocking operation,
// or returns "" when it is not one.
func classifySink(modulePath string, f *types.Func) string {
	pkg := f.Pkg()
	if pkg == nil {
		return ""
	}
	path := pkg.Path()
	sig, _ := f.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	switch {
	case path == modulePath+"/internal/streamfs":
		if isMethod && streamfsIOMethods[f.Name()] {
			return sinkStorage
		}
		if f.Name() == "OpenDisk" || f.Name() == "NewDisk" {
			return sinkFile
		}
	case path == "os":
		if isMethod || osIOFuncs[f.Name()] {
			return sinkFile
		}
	case path == "net" || strings.HasPrefix(path, "net/"):
		return sinkNetwork
	case path == "crypto/ecdsa":
		if f.Name() == "Sign" || f.Name() == "SignASN1" {
			return sinkSign
		}
	case path == modulePath+"/internal/sig":
		if isMethod && (f.Name() == "Sign" || f.Name() == "MustSign") && isNamedType(sig.Recv().Type(), "sig", "KeyPair") {
			return sinkSign
		}
	}
	return ""
}

// l1Allowlist names the module functions whose under-lock sinks are the
// design, not a violation — the intentional snapshot/commit sections.
// Keys are module-relative "pkg.func"; values say why. DESIGN.md §4.3
// repeats this table. Allowlisted functions are fully transparent to the
// analysis: their own bodies are not reported and they do not propagate
// taint to callers.
var l1Allowlist = map[string]string{
	// The apply lock IS the commit point: journal+digest stream appends
	// must happen under it so the dense jsn space and the accumulators
	// move together (§II-C single-committer sequencing).
	"internal/ledger.applyRecordLocked": "stream appends are the commit section",
	// Block cutting seals the streams the same way (§III-A1).
	"internal/ledger.cutBlockLocked": "block stream append is part of the cut",
	// Privileged writes (genesis, mutations, time anchors) sign their
	// receipt under the exclusive lock by design; client appends sign
	// off-lock in the pipeline (DESIGN.md §4.1).
	"internal/ledger.appendLocked": "privileged-write receipt signing",
	// One signature per commit generation, cached; the sign happens at
	// most once per generation under mu (DESIGN.md §4.2).
	"internal/ledger.stateLocked": "generation-cached state signing",
	// The state cache's singleflight signer: exactly one Sign per commit
	// generation, serialized on the cache's own mutex (DESIGN.md §4.2).
	"internal/ledger.signAndStore": "singleflight per-generation state signing",
	// Purge/occult rewrite the journal streams under the exclusive lock:
	// mutations are stop-the-world by design (§III-A2, §III-A3) — readers
	// must never observe a half-rewritten stream.
	"internal/ledger.Purge":              "verifiable purge rewrites streams stop-the-world",
	"internal/ledger.Occult":             "occult rewrites payload storage stop-the-world",
	"internal/ledger.OccultClue":         "clue-wide occult rewrites payload storage stop-the-world",
	"internal/ledger.erasePayloadLocked": "payload erasure is part of the stop-the-world mutation",
	// Locked readers: a handful of read paths need a journal fetched
	// under the caller's read lock so the clue/fam indexes and the stream
	// prefix stay consistent; the hot proof paths read outside mu (PR 2).
	"internal/ledger.getJournalLocked": "locked readers need a stream prefix consistent with the indexes",
	// Commit-point durability (DESIGN.md §4.4): the fsyncs that make a
	// commit point durable must run under the same lock section that
	// created it, or a concurrent append could slip between commit and
	// flush and be acknowledged without covering it.
	"internal/ledger.syncCommitLocked":  "commit-point fsync is part of the commit section",
	"internal/ledger.syncAppliedLocked": "SyncEvery flush is part of the apply section",
	// The destructive half of a purge runs under the exclusive lock by
	// the same stop-the-world argument as Purge itself; recovery reuses
	// it pre-concurrency to roll a decided purge forward.
	"internal/ledger.completePurgeLocked": "purge truncation/erasure is stop-the-world",
	"internal/ledger.pendingPurgeLocked":  "recovery-time scan runs before any concurrency",
}

// l1SkipPackages are module-relative package prefixes L1 does not apply
// to: the storage layer's own mutexes exist to serialize exactly the I/O
// they guard.
var l1SkipPackages = []string{"internal/streamfs"}

type cgNode struct {
	fn    *types.Func
	decl  *ast.FuncDecl // declaration body (L7 inspects spawned functions)
	pkg   *Package      // declaring package (for type info on decl)
	calls []*types.Func // statically resolved module callees
	// reach maps sink category -> human-readable chain ("a → b → Sign").
	reach map[string]string
}

type callGraph struct {
	modulePath string
	nodes      map[*types.Func]*cgNode
}

// buildCallGraph indexes every function declaration in the given module
// packages, records direct sinks, and propagates reachability.
func buildCallGraph(ctx *Context, pkgs []*Package) *callGraph {
	g := &callGraph{modulePath: ctx.Loader.ModulePath, nodes: make(map[*types.Func]*cgNode)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn] = g.scanBody(ctx, pkg, fd, fn)
			}
		}
	}
	g.propagate()
	return g
}

func (g *callGraph) scanBody(ctx *Context, pkg *Package, fd *ast.FuncDecl, fn *types.Func) *cgNode {
	node := &cgNode{fn: fn, decl: fd, pkg: pkg, reach: make(map[string]string)}
	lits := funcLitRanges(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || inRanges(call.Pos(), lits) {
			return true
		}
		callee := calleeOf(pkg.Info, call)
		if callee == nil {
			return true
		}
		if cat := classifySink(g.modulePath, callee); cat != "" {
			if _, have := node.reach[cat]; !have {
				node.reach[cat] = shortFuncName(callee)
			}
			return true
		}
		if p := callee.Pkg(); p != nil && (p.Path() == g.modulePath || strings.HasPrefix(p.Path(), g.modulePath+"/")) {
			node.calls = append(node.calls, callee)
		}
		return true
	})
	if _, allowed := l1Allowlist[g.key(fn)]; allowed {
		// Transparent: no taint of its own, none propagated through it.
		node.reach = make(map[string]string)
		node.calls = nil
	}
	return node
}

func (g *callGraph) key(fn *types.Func) string {
	rel := strings.TrimPrefix(fn.Pkg().Path(), g.modulePath+"/")
	return rel + "." + fn.Name()
}

// propagate runs reachability to a fixed point. Chains are capped at
// four hops so messages stay readable.
func (g *callGraph) propagate() {
	changed := true
	for changed {
		changed = false
		for _, node := range g.nodes {
			if _, allowed := l1Allowlist[g.key(node.fn)]; allowed {
				continue
			}
			for _, callee := range node.calls {
				target, ok := g.nodes[callee]
				if !ok {
					continue
				}
				for cat, chain := range target.reach {
					if _, have := node.reach[cat]; have {
						continue
					}
					if strings.Count(chain, "→") >= 3 {
						chain = chain[:strings.Index(chain, " →")] + " → …"
					}
					node.reach[cat] = shortFuncName(callee)
					if chain != shortFuncName(callee) {
						node.reach[cat] = shortFuncName(callee) + " → " + chain
					}
					changed = true
				}
			}
		}
	}
}

// reachable returns the sink categories (sorted) a module function can
// reach, with one example chain each.
func (g *callGraph) reachable(fn *types.Func) []string {
	node, ok := g.nodes[fn]
	if !ok {
		return nil
	}
	cats := make([]string, 0, len(node.reach))
	for cat := range node.reach {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	return cats
}

func (g *callGraph) chain(fn *types.Func, cat string) string {
	if node, ok := g.nodes[fn]; ok {
		return node.reach[cat]
	}
	return ""
}
