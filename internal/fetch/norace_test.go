//go:build !race

package fetch

const raceEnabled = false
