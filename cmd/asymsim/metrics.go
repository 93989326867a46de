package main

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"asymfence"
	"asymfence/internal/buildinfo"
)

// newCLIMetrics returns a fresh metrics registry for one CLI invocation
// when path (the -metrics flag) is non-empty, nil otherwise, so that
// writeOutput(path, reg.WriteJSON) never calls a nil registry. It
// carries the binary's build provenance as snapshot metadata, so an
// out.json identifies the asymsim that produced it.
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

// textOut returns where a command's own tables and prose go, given the
// values of its output flags: stdout, unless one of them is "-" and so
// owns stdout, in which case stderr. ok is false when two outputs claim
// stdout, a usage error.
func textOut(paths ...string) (w io.Writer, ok bool) {
	w = os.Stdout
	for _, p := range paths {
		if p != "-" {
			continue
		}
		if w == os.Stderr {
			return nil, false
		}
		w = os.Stderr
	}
	return w, true
}

// writeOutput writes what write produces to path, the value of an
// output flag (-metrics, conform -report, trace -trace-out): "" writes
// nothing, "-" writes to stdout, and anything else creates or truncates
// that file. The output is buffered, and every error, from creating,
// writing, flushing or closing, is returned and names path.
func writeOutput(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f := os.Stdout
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
	}
	bw := bufio.NewWriter(f)
	err := write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if f != os.Stdout {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
