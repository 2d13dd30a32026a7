package background

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzLoadJSONExact feeds arbitrary bytes to the snapshot model loader.
// A payload is either rejected with ErrCorrupt (or, if it claims a
// newer format, the plain unsupported-format error) or loads into a
// model whose own SaveJSON output matches the reference encoder's and
// reloads and re-saves byte-identically.
// It never panics. Seeds live in testdata/fuzz/FuzzLoadJSONExact.
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
		if ref, err := refModelJSON(m); err != nil || !bytes.Equal(first.Bytes(), ref) {
			t.Fatalf("SaveJSON differs from the reference encoder (%v):\n%s\n%s", err, first.Bytes(), ref)
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
