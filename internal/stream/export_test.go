package stream

// SetBudget shrinks t's label budget to n, so the budget rules can be
// exercised without minting Labels keys first. Call it before any
// label is minted.
func SetBudget(t *Table, n int) { t.slice = n }
