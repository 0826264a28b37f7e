// Package auditfixture exercises the directive audit behind
// `thynvm-lint -report` on //thynvm:allow-alloc directives outside any
// hotpath function: one that keeps a hotpath function's callee
// allocation-free suppresses that call's finding, and one that no hotpath
// function reaches suppresses nothing and is stale.
package auditfixture

type Table struct {
	rows [][]byte
}

// Get reaches page's sanctioned allocation through row, two hops down.
//
//thynvm:hotpath
func (t *Table) Get(i int) byte {
	return t.row(i)[0]
}

func (t *Table) row(i int) []byte {
	if i >= len(t.rows) {
		t.page(i)
	}
	return t.rows[i]
}

func (t *Table) page(i int) {
	for len(t.rows) <= i {
		//thynvm:allow-alloc rows are paged in once each, on first use
		t.rows = append(t.rows, make([]byte, 64))
	}
}

// Reset is on no hot path.
func (t *Table) Reset() {
	//thynvm:allow-alloc nothing hot reaches this
	t.rows = make([][]byte, 0, 8)
}
