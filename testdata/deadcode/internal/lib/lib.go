// Package lib holds the planted declarations of the dead-declaration
// gate's negative controls.
package lib

import (
	"fmt"
	"sort"
)

// Used has a caller in main.
func Used() int { return 1 }

// Unused has no caller: the gate must flag it.
func Unused() int { return 2 }

// Recursive calls only itself: its own body does not keep it alive.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

type impl struct{}

// New returns a value whose String method is only reached through
// fmt.Stringer.
func New() fmt.Stringer { return impl{} }

func (impl) String() string { return "impl" }

type byLen []string

func (s byLen) Len() int           { return len(s) }
func (s byLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s byLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// SortByLen sorts s shortest first. byLen's methods are only reached
// through sort.Interface, the parameter type of sort.Sort.
func SortByLen(s []string) {
	sort.Sort(byLen(s))
}
