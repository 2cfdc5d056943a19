package telemetry

import (
	"bytes"
	"testing"
)

// FuzzCollectorUnmarshal: any input either fails to decode or decodes to
// a collector whose encoding survives a second decode byte for byte, and
// whose readouts and merge do not panic. The seed corpus under
// testdata/fuzz/ holds the shapes that once did or must still fail: two
// version-1 blobs (a class sketch at another alpha than its collector's,
// and two class sketches whose buckets lie 2^40 indices apart), which now
// stop at the version check, and version-2 blobs with class sketches 2^40
// bucket indices apart and with a duplicate tag name; countBlob adds one
// declaring more classes than its bytes can encode. Windows are not
// recorded into: a decoded head need not suit Record's time arithmetic.
func FuzzCollectorUnmarshal(f *testing.F) {
	for _, c := range []*Collector{NewCollector(Opts{}, 2), populatedCollector(3, 60)} {
		blob, err := c.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add(countBlob(50_000, false))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Collector
		if c.UnmarshalBinary(data) != nil {
			return
		}
		enc, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var again Collector
		if err := again.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-encoded collector does not decode: %v", err)
		}
		if enc2, _ := again.MarshalBinary(); !bytes.Equal(enc, enc2) {
			t.Fatalf("second round trip changed the encoding:\n%x\n%x", enc, enc2)
		}
		c.Merged().Summary()
		c.WindowTax()
		if err := NewCollector(c.opts, len(c.classes)).Merge(&c); err != nil {
			t.Fatalf("merge into a fresh collector: %v", err)
		}
	})
}
