//go:build race

package testkit

const Race = true
