// Command deadcycle is the fixture of TestCallersFlagDeadCycle: ping and
// pong call only each other, so each has a caller but neither is reachable
// from a root. Everything else is reached: from main, from a package-level
// declaration, or as a method the standard library calls (String).
package main

import "fmt"

type counter int

func (c counter) String() string { return fmt.Sprint(int(c)) }

var table = map[string]func() counter{"one": one}

func main() { fmt.Println(live(), table["one"]()) }

func live() counter { return helper() + 1 }

func helper() counter { return 1 }

func one() counter { return 1 }

func ping(n int) int {
	if n <= 0 {
		return 0
	}
	return pong(n - 1)
}

func pong(n int) int { return ping(n) }
