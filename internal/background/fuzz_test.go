package background

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzLoadJSONExact feeds arbitrary bytes to the model loader. A
// payload is either rejected with ErrCorrupt (or, if it claims a newer
// format, the plain unsupported-format error) or loads into a model
// whose SaveJSON output reloads and re-saves byte-identically.
// It never panics. Seeds live in testdata/fuzz/FuzzLoadJSONExact. The
// ~1 MB payload of TestLoadJSONExactBoundsSetMemory is not one: the
// fuzzer would spend its time minimizing that payload's mutants.
func FuzzLoadJSONExact(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadJSONExact(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !newerModelFormat(data) {
				t.Fatalf("untyped reject: %v", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := m.SaveJSON(&first); err != nil {
			t.Fatalf("SaveJSON of a loaded model: %v", err)
		}
		again, err := LoadJSONExact(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved model: %v\n%s", err, first.Bytes())
		}
		if err := again.SaveJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save/load is not a fixed point:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// newerModelFormat reports whether data declares a model format this
// code does not read.
func newerModelFormat(data []byte) bool {
	var probe struct {
		Format int `json:"format"`
	}
	return json.NewDecoder(bytes.NewReader(data)).Decode(&probe) == nil && probe.Format > modelFormat
}
