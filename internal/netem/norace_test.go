//go:build !race

package netem

const raceEnabled = false
