// Package lib is a fixture for the test-only export check.
package lib

// Used has a non-test caller.
func Used() {}

// Helper is the function under check.
func Helper() int { return 1 }
