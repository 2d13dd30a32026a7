// Package fix re-exports lib.T as its API.
package fix

import "fix/internal/lib"

// T is the library's T.
type T = lib.T

// New returns a T.
func New() *T { return lib.New() }
