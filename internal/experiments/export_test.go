package experiments

import (
	"context"

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

// NewEngineWithExec returns an engine with the execution environment c
// whose jobs run exec in place of the simulator.
func NewEngineWithExec(c RunConfig, exec func(context.Context, Spec) (*Measurement, error)) *Engine {
	e := NewEngine(c)
	e.exec = exec
	return e
}

// MemoLen returns the number of measurements in the process-wide memo.
func MemoLen() int {
	memo.Lock()
	defer memo.Unlock()
	return len(memo.m)
}

// The progress line's time estimate and the job-latency histogram's
// bounds.
var (
	EtaString        = etaString
	JobLatencyBounds = jobLatencyBounds
)
