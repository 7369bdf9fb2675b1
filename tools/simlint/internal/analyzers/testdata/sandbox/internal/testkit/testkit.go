// Package testkit stands in for the test kits, which only _test.go
// files import.
package testkit

func Settle() {}
