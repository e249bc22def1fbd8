package ap_test

import (
	"reflect"
	"testing"

	"rtmap/internal/ap"
	"rtmap/internal/codegen"
)

// scanPath returns the path to the first part of t the garbage collector
// would have to scan — a pointer, slice, map, string, interface, chan or
// func, found through structs and arrays — or "" when t holds none.
func scanPath(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Struct:
		for i := range t.NumField() {
			if p := scanPath(t.Field(i).Type); p != "" {
				return "." + t.Field(i).Name + p
			}
		}
		return ""
	case reflect.Array:
		if p := scanPath(t.Elem()); p != "" && t.Len() > 0 {
			return "[i]" + p
		}
		return ""
	}
	return " (" + t.Kind().String() + ")"
}

// A compiled network keeps hundreds of thousands of instructions, columns
// and plan ops live for as long as it is served (millions for resnet18).
// Held in pointer-free types, their tables are no-scan allocations and no
// GC cycle walks them; one string or slice field in any of these types
// would put every element back on the collector's books.
func TestArtifactTablesPointerFree(t *testing.T) {
	for _, v := range append(ap.ArtifactTables, codegen.Load{}) {
		if p := scanPath(reflect.TypeOf(v)); p != "" {
			t.Errorf("%T holds memory the collector scans: %T%s", v, v, p)
		}
	}
	// The guard itself sees through structs and arrays.
	for _, v := range []any{struct{ Name string }{}, [2]struct{ p *int }{}, struct{ ds []int }{}, struct{ f func() }{}} {
		if scanPath(reflect.TypeOf(v)) == "" {
			t.Errorf("scanPath misses the pointer in %T", v)
		}
	}
}
