// Package lib is a fixture for the test-only export check.
package lib

// T is re-exported by the root package.
type T struct{}

// New returns a T.
func New() *T { return &T{} }

// Method is API through the root alias, though only tests call it.
func (t *T) Method() int { return 1 }
