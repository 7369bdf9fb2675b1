//go:build !race

package testkit

const Race = false
