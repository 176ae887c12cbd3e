//go:build !unix

package tensor

import "testing"

// guardedFloats has no guard page to offer on this platform.
func guardedFloats(_ testing.TB, n int) []float32 { return make([]float32, n) }
