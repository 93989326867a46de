package experiments

import (
	"asymfence/internal/stats"
	"asymfence/internal/store"
)

// DecodeMeasurement decodes the bytes of the measurement record stored
// under key, as Load does once it has read the file.
func DecodeMeasurement(b []byte, key string) (*Measurement, bool) {
	m := &Measurement{Agg: new(stats.Core)}
	return m, store.Decode(b, key, MeasurementKind, m.fields)
}

// EncodeMeasurement returns m's payload: the bytes Store writes for it
// between the record's header and its checksum.
func EncodeMeasurement(m *Measurement) []byte {
	var w store.Writer
	m.fields(&w)
	return w.Bytes()
}
