package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"thynvm/internal/analysis/load"
)

// Per-function summaries: the interprocedural backbone of the suite
// (DESIGN.md §14). Every function declaration in the module gets one
// FuncSummary holding its direct facts (does its body allocate? raise the
// generation-safety guard?) plus its static call edges into other module
// functions. Facts then propagate bottom-up over the call graph's strongly
// connected components, so a caller inherits what its callees may do,
// transitively, without any analyzer re-walking callee bodies. The table
// is computed once per lint run over the whole module and shared by all
// analyzers through Pass.Summaries.

// moduleName is this module's import-path root; only calls into module
// packages get summary edges (standard-library bodies are not loaded).
const moduleName = "thynvm"

// InModule reports whether an import path belongs to this module.
func InModule(path string) bool {
	return path == moduleName || strings.HasPrefix(path, moduleName+"/")
}

// A FuncSummary is the per-function fact record. The boolean facts form a
// powerset lattice ordered by implication (false ⊑ true) and propagation
// only ever raises them, so the bottom-up SCC pass reaches a fixpoint.
type FuncSummary struct {
	// Marker-directive classification (doc comment).
	HotPath     bool
	GuardRaiser bool
	DestroysGen bool
	// DestroysWhat is the //thynvm:destroys-generation description when
	// the whole function is classified destructive.
	DestroysWhat string

	// Allocates: the body (or a transitive callee) contains a heap
	// allocation not sanctioned by //thynvm:allow-alloc. AllocWhat/AllocPos
	// witness the direct site; AllocVia is the callee key the allocation is
	// reached through ("" when direct).
	Allocates bool
	AllocWhat string
	AllocPos  string
	AllocVia  string

	// allowedAllocs are the //thynvm:allow-alloc directives that sanctioned
	// an allocation in the body, one per directive.
	allowedAllocs []auditKey

	// RaisesGuard: the function is a guard-raise primitive (its doc comment
	// carries the marker directive) or may call one.
	RaisesGuard bool

	// Calls lists the summary keys of module-internal functions the body
	// statically calls (sorted, deduplicated; interface dispatch has no
	// static callee and is not recorded).
	Calls []string
}

// Summaries is the summary table of one run (the whole module for the CLI,
// one package for a fixture), keyed by FuncKey.
type Summaries struct {
	m map[string]*FuncSummary
}

// Lookup returns the summary for key, or nil.
func (s *Summaries) Lookup(key string) *FuncSummary {
	return s.m[key]
}

// FuncKey returns the stable summary key for a function or method: the
// generic origin's fully qualified name, e.g.
// "(*thynvm/internal/mem.Storage).Write" or "thynvm/internal/mem.NewStorage".
// Using the origin collapses generic instantiations onto their declaration.
func FuncKey(fn *types.Func) string {
	return fn.Origin().FullName()
}

// declKey resolves a declaration to its summary key, or "".
func declKey(info *types.Info, fn *ast.FuncDecl) string {
	obj, _ := info.Defs[fn.Name].(*types.Func)
	if obj == nil {
		return ""
	}
	return FuncKey(obj)
}

// ComputeSummaries builds the summary table for pkgs, resolving call edges
// between the functions being summarized (the whole module for the CLI, one
// package for a fixture). Facts propagate bottom-up over SCCs of the call
// graph.
func ComputeSummaries(pkgs []*load.Package) *Summaries {
	sums := make(map[string]*FuncSummary)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			dirs := directiveLines(pkg.Fset, file)
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				key := declKey(pkg.Info, fn)
				if key == "" {
					continue
				}
				sums[key] = summarizeFunc(pkg, dirs, fn)
			}
		}
	}
	propagate(sums)
	return &Summaries{m: sums}
}

// summarizeFunc computes one function's direct facts and call edges.
func summarizeFunc(pkg *load.Package, dirs map[int][]directive, fn *ast.FuncDecl) *FuncSummary {
	s := &FuncSummary{HotPath: HotPath(fn)}
	if _, ok := docDirective(fn, "guard-raise"); ok {
		s.GuardRaiser = true
		s.RaisesGuard = true
	}
	if d, ok := docDirective(fn, "destroys-generation"); ok {
		s.DestroysGen = true
		s.DestroysWhat = d.reason
	}

	// Direct allocation witness, honoring //thynvm:allow-alloc exactly the
	// way hotalloc does (a sanctioned amortized allocation is not an
	// allocation for propagation purposes either).
	allocInspect(pkg.Info, fn.Body, receiverRooted(fn), func(pos token.Pos, what string) {
		if line, ok := allowedAt(dirs, pkg.Fset, pos, "allow-alloc"); ok {
			k := auditKey{pkg.Fset.Position(pos).Filename, line, "allow-alloc"}
			if n := len(s.allowedAllocs); n == 0 || s.allowedAllocs[n-1] != k {
				s.allowedAllocs = append(s.allowedAllocs, k)
			}
			return
		}
		if s.Allocates {
			return
		}
		s.Allocates = true
		s.AllocWhat = what
		s.AllocPos = pkg.Fset.Position(pos).String()
	})

	// Call edges.
	callSet := make(map[string]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if cfn := funcObj(pkg.Info, call); cfn != nil && cfn.Pkg() != nil && InModule(cfn.Pkg().Path()) {
			callSet[FuncKey(cfn)] = true
		}
		return true
	})
	s.Calls = make([]string, 0, len(callSet))
	for k := range callSet {
		s.Calls = append(s.Calls, k)
	}
	sort.Strings(s.Calls)
	return s
}

// propagate raises the may-facts bottom-up: strongly connected components
// of the call graph are found with Tarjan's algorithm and processed in
// reverse topological order (callees before callers); within one SCC the
// members share a fixpoint.
func propagate(sums map[string]*FuncSummary) {
	keys := make([]string, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic SCC discovery and witness choice

	// Tarjan's SCC. The call graph is shallow (module depth ≪ 10⁴), so the
	// recursion is safe.
	index := make(map[string]int, len(sums))
	low := make(map[string]int, len(sums))
	onStack := make(map[string]bool, len(sums))
	var stack []string
	var sccs [][]string // emitted in reverse topological order
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range sums[v].Calls {
			if _, ok := sums[w]; !ok {
				continue
			}
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, k := range keys {
		if _, seen := index[k]; !seen {
			strongconnect(k)
		}
	}

	// Tarjan emits each SCC after all SCCs it reaches, so walking the list
	// in emission order IS bottom-up. Within an SCC, iterate to the inner
	// fixpoint (facts can flow around the cycle).
	for _, scc := range sccs {
		sort.Strings(scc)
		for changed := true; changed; {
			changed = false
			for _, k := range scc {
				s := sums[k]
				for _, c := range s.Calls {
					cs := sums[c]
					if cs == nil || c == k {
						continue
					}
					if cs.Allocates && !s.Allocates {
						s.Allocates = true
						s.AllocVia = c
						changed = true
					}
					if cs.RaisesGuard && !s.RaisesGuard {
						s.RaisesGuard = true
						changed = true
					}
				}
			}
		}
	}
}

// creditAllowedAllocs records an audit hit for every //thynvm:allow-alloc
// directive that sanctioned an allocation in key's body or in a function
// key transitively calls. hotpathprop calls it for each hotpath call of a
// callee whose summary is allocation-free: those directives are what keep
// it so, and the call's finding is the one they suppress.
func (s *Summaries) creditAllowedAllocs(key string, audit *DirectiveAudit) {
	seen := map[string]bool{key: true}
	for stack := []string{key}; len(stack) > 0; {
		fs := s.Lookup(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		if fs == nil {
			continue
		}
		for _, k := range fs.allowedAllocs {
			audit.hits[k]++
		}
		for _, c := range fs.Calls {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
}

// AllocChain renders the callee chain from key to the direct allocation
// witness, e.g. "helper → leaf (make allocates at file.go:12)". It guards
// against cycles inside an SCC.
func (s *Summaries) AllocChain(key string) string {
	var parts []string
	seen := make(map[string]bool)
	for key != "" && !seen[key] {
		seen[key] = true
		fs := s.Lookup(key)
		if fs == nil {
			break
		}
		parts = append(parts, shortKey(key))
		if fs.AllocVia == "" {
			return fmt.Sprintf("%s (%s at %s)", strings.Join(parts, " → "), fs.AllocWhat, fs.AllocPos)
		}
		key = fs.AllocVia
	}
	return strings.Join(parts, " → ")
}

// shortKey trims the module import-path prefix from a summary key for
// display: "(*thynvm/internal/mem.Storage).Write" → "(*mem.Storage).Write".
func shortKey(key string) string {
	key = strings.ReplaceAll(key, moduleName+"/internal/", "")
	return strings.ReplaceAll(key, moduleName+"/", "")
}
