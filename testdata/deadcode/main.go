// Package main is the planted caller of the dead-declaration gate's
// negative controls.
package main

import (
	"fmt"

	"deadcode/internal/lib"
)

func main() {
	lib.SortByLen(nil)
	fmt.Println(lib.Used(), lib.New())
}
