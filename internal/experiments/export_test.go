package experiments

import "asymfence/internal/store"

// DecodeMeasurement decodes the bytes of the measurement record stored
// under key, as Load does once it has read the file.
func DecodeMeasurement(b []byte, key string) (*Measurement, bool) {
	m := new(Measurement)
	return m, store.Decode(b, key, MeasurementKind, m.decode)
}
