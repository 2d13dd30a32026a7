package engine

import "reflect"

// ParkedResultFootprint inspects the arena parked last on the free list
// and returns the element type of its result buffer, the buffer's
// capacity in slots and its bytes per slot: the element's size plus that
// of every other arena column allocated at the same capacity.
func ParkedResultFootprint() (rec reflect.Type, slots int, bytesPerSlot float64) {
	arenas.Lock()
	defer arenas.Unlock()
	if len(arenas.free) == 0 {
		return nil, 0, 0
	}
	a := reflect.ValueOf(arenas.free[len(arenas.free)-1]).Elem()
	out := a.FieldByName("out")
	rec, slots = out.Type().Elem(), out.Cap()
	if slots == 0 {
		return rec, 0, 0
	}
	bytes := 0
	for i := range a.NumField() {
		f := a.Field(i)
		if f.Kind() == reflect.Slice && f.Cap() == slots {
			bytes += slots * int(f.Type().Elem().Size())
		}
	}
	return rec, slots, float64(bytes) / float64(slots)
}
