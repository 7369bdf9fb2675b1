//go:build race

package fetch

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what is put into it, so a pooled buffer is not there to be leased
// again and allocation budgets do not hold.
const raceEnabled = true
