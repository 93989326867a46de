package main

import (
	"bufio"
	"fmt"
	"os"

	"asymfence"
	"asymfence/internal/buildinfo"
)

// newCLIMetrics returns a fresh metrics registry for one CLI invocation
// when path (the -metrics flag) is non-empty, nil otherwise. It carries
// the binary's build provenance as snapshot metadata, so an out.json
// identifies the asymsim that produced it.
func newCLIMetrics(path string) *asymfence.MetricsRegistry {
	if path == "" {
		return nil
	}
	reg := asymfence.NewMetricsRegistry()
	bi := buildinfo.Get()
	reg.SetMeta("version", bi.Version)
	reg.SetMeta("revision", bi.Revision)
	reg.SetMeta("go", bi.GoVersion)
	return reg
}

// writeMetrics writes reg's JSON snapshot to path ("-" means stdout).
// A nil registry (the -metrics flag was empty) is a no-op.
func writeMetrics(reg *asymfence.MetricsRegistry, path string) error {
	if reg == nil || path == "" {
		return nil
	}
	if path == "-" {
		_, err := os.Stdout.Write(reg.JSON())
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = reg.WriteJSON(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing metrics snapshot: %w", err)
	}
	return nil
}
