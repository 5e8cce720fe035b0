package core

import (
	"reflect"
	"testing"
	"unsafe"

	"ringlwe/internal/cacheline"
)

// fieldLines returns the first and last cache line that the named (not
// blank) fields of the struct of type t at p occupy.
func fieldLines(p unsafe.Pointer, t reflect.Type) (lo, hi uintptr) {
	first, last := ^uintptr(0), uintptr(0)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Name == "_" {
			continue
		}
		first = min(first, f.Offset)
		last = max(last, f.Offset+f.Type.Size())
	}
	return (uintptr(p) + first) / cacheline.Size, (uintptr(p) + last - 1) / cacheline.Size
}

// TestWorkspacesShareNoCacheLine checks that the state a workspace writes
// on every operation, its own fields, its uniform bit pool and its
// Runner's job slots, shares no cache line with another workspace's,
// wherever the allocator puts them.
func TestWorkspacesShareNoCacheLine(t *testing.T) {
	s := newScheme(t, P1(), 1)
	type span struct {
		ws     int
		lo, hi uintptr
	}
	var spans []span
	for i := 0; i < 16; i++ {
		w, err := s.NewWorkspace()
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := fieldLines(unsafe.Pointer(w), reflect.TypeOf(*w))
		spans = append(spans, span{i, lo, hi})
		lo, hi = fieldLines(unsafe.Pointer(w.uniform), reflect.TypeOf(*w.uniform))
		spans = append(spans, span{i, lo, hi})
		lo, hi = fieldLines(unsafe.Pointer(w.runner), reflect.TypeOf(w.runner).Elem())
		spans = append(spans, span{i, lo, hi})
	}
	for i, a := range spans {
		for _, b := range spans[i+1:] {
			if a.ws != b.ws && a.lo <= b.hi && b.lo <= a.hi {
				t.Fatalf("workspaces %d and %d share a cache line", a.ws, b.ws)
			}
		}
	}
}
