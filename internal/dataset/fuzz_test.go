package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to ReadCSV. A rejected input must
// come back as an error, never a panic; an accepted one must survive
// WriteCSV → ReadCSV as a deeply equal dataset. Seeds live in
// testdata/fuzz/FuzzReadCSV.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV of an accepted dataset: %v", err)
		}
		again, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadCSV of WriteCSV output: %v\ninput %q\nwritten %q", err, data, buf.Bytes())
		}
		if !reflect.DeepEqual(ds, again) {
			t.Fatalf("round trip changed the dataset\ninput %q\nwritten %q\nbefore %+v\nafter %+v",
				data, buf.Bytes(), ds, again)
		}
	})
}

// FuzzReadARFF feeds arbitrary bytes and a comma-separated target list
// to ReadARFF, which must answer with a dataset or an error, never a
// panic. Seeds live in testdata/fuzz/FuzzReadARFF.
func FuzzReadARFF(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, targets string) {
		ds, err := ReadARFF(bytes.NewReader(data), strings.Split(targets, ","))
		if err == nil {
			if verr := ds.Validate(); verr != nil {
				t.Fatalf("ReadARFF accepted an invalid dataset: %v", verr)
			}
		}
	})
}
