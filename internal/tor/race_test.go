//go:build race

package tor

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what is put into it, so allocation budgets do not hold.
const raceEnabled = true
