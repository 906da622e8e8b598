package iokvet

import (
	"go/ast"
	"go/types"
)

// LockScope encodes the locking model in docs/ARCHITECTURE.md: locks
// are fine-grained and never held across blocking work. Within one
// function it tracks which mutexes are held (Lock/RLock through
// Unlock/RUnlock, or to function end under a deferred unlock) and
// flags (a) re-entrant acquisition of a mutex already held — a
// guaranteed deadlock — and (b) blocking calls under any held lock:
// fsync, network dials, HTTP round-trips, sleeps, subprocesses, and
// the in-repo blockers store.AtomicWriteFile and engine.Log appends.
// The WAL durability point (fsync inside the engine write lock) is the
// documented, intentional exception and carries directives. The check
// is intra-function and syntactic: function literals are separate
// scopes, and branch-local acquisitions are treated as held for the
// rest of the function (a conservative approximation).
var LockScope = &Analyzer{
	Name:     "lockscope",
	Doc:      "no blocking call and no re-entrant acquisition while a component mutex is held",
	Packages: lockedPackages,
	Run:      runLockScope,
}

const (
	lockAcquire = iota
	lockRelease
)

// lockMethods maps the sync primitives' method names to their effect.
var lockMethods = map[string]int{
	"(*sync.Mutex).Lock":      lockAcquire,
	"(*sync.RWMutex).Lock":    lockAcquire,
	"(*sync.RWMutex).RLock":   lockAcquire,
	"(*sync.Mutex).Unlock":    lockRelease,
	"(*sync.RWMutex).Unlock":  lockRelease,
	"(*sync.RWMutex).RUnlock": lockRelease,
}

// blockingCalls maps qualified names to what makes them blocking.
var blockingCalls = map[string]string{
	"(*os.File).Sync":                        "fsync",
	"time.Sleep":                             "sleep",
	"net.Dial":                               "network dial",
	"net.DialTimeout":                        "network dial",
	"net.Listen":                             "network listen",
	"net/http.Get":                           "HTTP round-trip",
	"net/http.Post":                          "HTTP round-trip",
	"net/http.PostForm":                      "HTTP round-trip",
	"net/http.Head":                          "HTTP round-trip",
	"(*net/http.Client).Do":                  "HTTP round-trip",
	"(*net/http.Client).Get":                 "HTTP round-trip",
	"(*net/http.Client).Post":                "HTTP round-trip",
	"(*net/http.Client).PostForm":            "HTTP round-trip",
	"(*net/http.Client).Head":                "HTTP round-trip",
	"(*os/exec.Cmd).Run":                     "subprocess",
	"(*os/exec.Cmd).Output":                  "subprocess",
	"(*os/exec.Cmd).CombinedOutput":          "subprocess",
	"(*os/exec.Cmd).Wait":                    "subprocess",
	"iokast/internal/store.AtomicWriteFile":  "fsync (atomic file commit)",
	"(iokast/internal/engine.Log).LogInsert": "WAL append + fsync",
	"(iokast/internal/engine.Log).LogRemove": "WAL append + fsync",
}

func runLockScope(pass *Pass) error {
	var scopes []*ast.BlockStmt
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				scopes = append(scopes, fd.Body)
			}
		}
	}
	// Function literals are their own scopes (a fan-out goroutine does
	// not inherit its parent's critical section).
	for len(scopes) > 0 {
		body := scopes[0]
		scopes = scopes[1:]
		scopes = append(scopes, analyzeLockScope(pass, body)...)
	}
	return nil
}

// analyzeLockScope walks one function body in source order, tracking
// held mutexes by receiver expression, and returns nested function
// literals for separate analysis.
func analyzeLockScope(pass *Pass, body *ast.BlockStmt) []*ast.BlockStmt {
	held := map[string]bool{}
	var nested []*ast.BlockStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			nested = append(nested, n.Body)
			return false
		case *ast.DeferStmt:
			// `defer mu.Unlock()` keeps mu held to function end; other
			// deferred work runs outside this walk's ordering, so skip it.
			return false
		case *ast.CallExpr:
			name := pass.CalleeName(n)
			if effect, ok := lockMethods[name]; ok {
				key := lockKey(pass, n)
				switch effect {
				case lockAcquire:
					if held[key] {
						pass.Reportf(n.Pos(), "re-entrant acquisition of %s, already held in this function: deadlock", key)
					}
					held[key] = true
				case lockRelease:
					delete(held, key)
				}
				return true
			}
			if why, ok := blockingCalls[name]; ok && len(held) > 0 {
				pass.Reportf(n.Pos(), "%s (%s) while %s held: blocking under a component mutex stalls every reader",
					name, why, heldNames(held))
			}
		}
		return true
	})
	return nested
}

// lockKey renders the mutex receiver ("s.mu") for identity tracking.
func lockKey(pass *Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "?"
	}
	return types.ExprString(sel.X)
}

// heldNames lists the held mutexes deterministically for the message.
func heldNames(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	// tiny n: insertion sort keeps this dependency-free and ordered
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
