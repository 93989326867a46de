package asymfence

import "asymfence/internal/experiments"

// MeasurementStore is a persistent, content-addressed measurement
// store: one crash-safe on-disk record per canonical simulation
// configuration, shared across processes and concurrent runs. Attach
// one to any entry point through RunConfig.Store and warm
// configurations are served from disk instead of re-simulating —
// regenerating a previously measured figure becomes a disk lookup.
// Records carry the writing binary's build provenance and a payload
// version tag; each is written synchronously with a temporary file
// and a rename, so it is on disk when its job completes; corrupt or
// truncated records degrade to misses and regenerate. There is no
// index and no size bound: the record files are the store. See
// internal/store for the on-disk format and DESIGN.md for where the
// tier sits.
type MeasurementStore = experiments.MeasurementStore

// StoreOptions configure OpenStore.
type StoreOptions = experiments.MeasurementStoreOptions

// OpenStore opens (creating if necessary) the persistent measurement
// store rooted at dir. Opening reads no record; it only removes the
// files a crashed writer left in the store's tmp directory, those over
// an hour old, so a record another handle is writing meanwhile keeps
// its temporary file. Concurrent opens of one directory — including
// from other processes — are safe. Close is a no-op kept so callers can
// treat the handle as a resource.
func OpenStore(dir string, opts StoreOptions) (*MeasurementStore, error) {
	return experiments.OpenMeasurementStore(dir, opts)
}
