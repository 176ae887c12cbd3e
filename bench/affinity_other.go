//go:build !linux

package main

// Without thread affinity the speedometer samples whichever CPU the OS puts
// it on.
func allowedCPUs() []int     { return nil }
func pinThread(cpu int) bool { return false }
