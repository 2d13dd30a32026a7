// Package lib is a fixture for the test-only export check.
package lib

// Reader lists Stats, which only a test calls.
type Reader interface {
	Used() int
	Stats() int
}

// T implements Reader.
type T struct{}

// Used has a non-test caller through Reader.
func (T) Used() int { return 1 }

// Stats is the method under check.
func (T) Stats() int { return 2 }
