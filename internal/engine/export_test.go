package engine

import (
	"fmt"
	"reflect"
)

// ParkedColumn is one slice of a parked arena: its path from the arena,
// its element type, its capacity and the bytes of its backing array.
type ParkedColumn struct {
	Path  string
	Elem  reflect.Type
	Cap   int
	Bytes int
}

// ParkedColumns walks the arena parked last on the free list, its Batch
// and every struct and slice nested in it, and returns each slice with
// a backing array. It returns nil when no arena is parked.
func ParkedColumns() []ParkedColumn {
	arenas.Lock()
	defer arenas.Unlock()
	if len(arenas.free) == 0 {
		return nil
	}
	var cols []ParkedColumn
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice:
			if v.Cap() == 0 {
				return
			}
			cols = append(cols, ParkedColumn{path, v.Type().Elem(), v.Cap(), v.Cap() * int(v.Type().Elem().Size())})
			all := v.Slice(0, v.Cap())
			for i := range all.Len() {
				walk(fmt.Sprintf("%s[%d]", path, i), all.Index(i))
			}
		}
	}
	walk("arena", reflect.ValueOf(arenas.free[len(arenas.free)-1]).Elem())
	return cols
}

// DropParkedArenas empties the free list, so the next search starts
// from a fresh arena.
func DropParkedArenas() {
	arenas.Lock()
	arenas.free = nil
	arenas.Unlock()
}
