// Package fake is a test fake: only _test.go files import it.
package fake

import "errors"

// Broken returns an error.
func Broken() error { return errors.New("broken") }
