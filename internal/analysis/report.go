package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"thynvm/internal/analysis/load"
)

// This file implements the escape-hatch audit behind `thynvm-lint -report`:
// every //thynvm: directive in the tree is counted, and the suppressing
// (allow-*) directives are cross-checked against the suppressions the
// analyzers actually recorded during the run. An allow-* directive that no
// longer suppresses any finding is dead weight with an outdated reason
// attached — the report flags it as an error so hatches get deleted when
// the code they excused is fixed. Unknown directive names (typos silently
// suppress nothing) and allow-* directives without a reason are errors too.

// allowDirectives is the complete set of suppressing directives; anything
// else starting with "allow-" is a typo.
var allowDirectives = map[string]bool{
	"allow-maporder":    true,
	"allow-walltime":    true,
	"allow-alloc":       true,
	"allow-nodefer":     true,
	"allow-concurrency": true,
}

// markerDirectives classify code rather than suppress findings; they are
// counted but exempt from the staleness check. needsReason records whether
// the directive's trailing text is required (destroys-generation must say
// what is destroyed).
var markerDirectives = map[string]bool{ // name → needsReason
	"hotpath":             false,
	"guard-raise":         false,
	"destroys-generation": true,
}

// A DirectiveAudit records every suppression the analyzers perform,
// keyed by the suppressing directive's own file and line.
type DirectiveAudit struct {
	hits map[auditKey]int
}

type auditKey struct {
	file string
	line int
	name string
}

// hit records one suppression by the directive named name at file:line.
func (a *DirectiveAudit) hit(file string, line int, name string) {
	a.hits[auditKey{file, line, name}]++
}

// A Report is the result of auditing every directive in the loaded tree.
type Report struct {
	// Counts is the number of occurrences per directive name.
	Counts map[string]int
	// Suppressions is the total number of findings suppressed by allow-*
	// directives during the run.
	Suppressions int
	// Problems lists stale, unknown and reason-less directives; any entry
	// makes the report an error.
	Problems []ReportProblem
}

// A ReportProblem is one directive the report rejects.
type ReportProblem struct {
	Pos     string // file:line
	Kind    string // "stale", "unknown", "missing-reason"
	Message string
}

// OK reports whether the audit found no problems.
func (r *Report) OK() bool { return len(r.Problems) == 0 }

// BuildReport scans every //thynvm: directive in pkgs and cross-checks the
// allow-* ones against the suppressions recorded in audit. Run it only
// after every analyzer has completed over the same tree — staleness is
// judged against audit's contents.
func BuildReport(pkgs []*load.Package, audit *DirectiveAudit) *Report {
	r := &Report{Counts: make(map[string]int)}
	for _, n := range audit.hits {
		r.Suppressions += n
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					d, ok := parseDirective(c.Text)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					r.Counts[d.name]++
					needsReason, isMarker := markerDirectives[d.name]
					switch {
					case allowDirectives[d.name]:
						if d.reason == "" {
							r.problem(pos, "missing-reason",
								"//thynvm:%s has no reason; a reason is required for the directive to suppress anything", d.name)
						} else if audit.hits[auditKey{pos.Filename, pos.Line, d.name}] == 0 {
							r.problem(pos, "stale",
								"//thynvm:%s (%s) no longer suppresses any finding; delete it", d.name, d.reason)
						}
					case isMarker:
						if needsReason && d.reason == "" {
							r.problem(pos, "missing-reason",
								"//thynvm:%s requires a description of what is destroyed", d.name)
						}
					default:
						r.problem(pos, "unknown",
							"unknown directive //thynvm:%s (it suppresses nothing); known: allow-{maporder,walltime,alloc,nodefer,concurrency}, hotpath, guard-raise, destroys-generation", d.name)
					}
				}
			}
		}
	}
	sort.Slice(r.Problems, func(i, j int) bool { return r.Problems[i].Pos < r.Problems[j].Pos })
	return r
}

func (r *Report) problem(pos token.Position, kind, format string, args ...any) {
	r.Problems = append(r.Problems, ReportProblem{
		Pos:     fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
		Kind:    kind,
		Message: fmt.Sprintf(format, args...),
	})
}

// Format renders the report for humans (and the CI artifact).
func (r *Report) Format() string {
	var b strings.Builder
	b.WriteString("thynvm-lint directive report\n")
	names := make([]string, 0, len(r.Counts))
	for n := range r.Counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-24s %d\n", "//thynvm:"+n, r.Counts[n])
	}
	fmt.Fprintf(&b, "  findings suppressed by allow-* directives: %d\n", r.Suppressions)
	if r.OK() {
		b.WriteString("  no stale, unknown or reason-less directives\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  PROBLEMS (%d):\n", len(r.Problems))
	for _, p := range r.Problems {
		fmt.Fprintf(&b, "  %s: %s: %s\n", p.Pos, p.Kind, p.Message)
	}
	return b.String()
}
