//go:build !race

package pt_test

const raceEnabled = false
