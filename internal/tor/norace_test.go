//go:build !race

package tor

const raceEnabled = false
