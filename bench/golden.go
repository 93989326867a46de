package main

import (
	_ "embed"
	"encoding/json"
)

// goldenJSON pins the correctness references: for each configuration
// key, the digest a correct program produces. Keys name the exact
// configuration (and seed) they hold for, so a run at any other
// configuration is checked for determinism and invariants only.
// Regenerate with `go test -run TestGolden -update` in this directory.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// goldens is goldenJSON decoded: configuration key → hex SHA-256.
var goldens = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic("bench: testdata/golden.json: " + err.Error())
	}
	return m
}()
