package trace

import (
	"bufio"
	"fmt"
	"io"

	"asymfence/internal/buildinfo"
)

// WriteChrome writes the stream in the Chrome trace_event JSON object
// format, loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
// It writes fields in a fixed order with fmt, never by iterating maps,
// so identical runs produce byte-identical files (a test in
// internal/sim asserts this end to end).
//
// Mapping: one simulated cycle is one microsecond of trace time; every
// mesh node is a "process" (core n / dir n share pid n, on separate
// "tracks" via tid 0=core, 1=directory, 2=noc); active weak fences are
// async spans (b/e pairs keyed by the fence's sequence number); all
// other events are instants; interval samples become counter tracks.
// The top-level otherData object names the generating binary's version
// and counts the events, the samples and the events a bounded buffer
// dropped. See OBSERVABILITY.md for the schema.
func WriteChrome(w io.Writer, evs []Event, samples []Sample, dropped uint64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"displayTimeUnit":"ms","otherData":{"generator":"asymsim %s","events":%d,"samples":%d,"dropped":%d},"traceEvents":[`,
		buildinfo.Get().Version, len(evs), len(samples), dropped)
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		} else {
			bw.WriteString("\n")
			first = false
		}
		fmt.Fprintf(bw, format, args...)
	}

	// Process/thread naming metadata: name each node's tracks once.
	named := map[int32]bool{}
	for i := range evs {
		n := evs[i].Node
		if named[n] {
			continue
		}
		named[n] = true
		emit(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":"node %d"}}`, n, n)
		emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":0,"args":{"name":"core"}}`, n)
		emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":1,"args":{"name":"directory"}}`, n)
		emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":2,"args":{"name":"noc"}}`, n)
	}
	for i := range samples {
		n := samples[i].Core
		if !named[n] {
			named[n] = true
			emit(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":"node %d"}}`, n, n)
		}
	}

	for i := range evs {
		e := &evs[i]
		switch e.Kind {
		case KFenceWeak:
			// Async span begin, ended by the matching KFenceComplete.
			emit(`{"name":"wfence","cat":"fence","ph":"b","id":%d,"ts":%d,"pid":%d,"tid":0,"args":{"pc":%d,"seq":%d}}`,
				e.B, e.Cycle, e.Node, e.A, e.B)
		case KFenceComplete:
			emit(`{"name":"wfence","cat":"fence","ph":"e","id":%d,"ts":%d,"pid":%d,"tid":0,"args":{"bslines":%d}}`,
				e.A, e.Cycle, e.Node, e.B)
		default:
			k := &kinds[e.Kind]
			tid := 0
			switch k.class {
			case MaskDir:
				tid = 1
			case MaskNoC:
				tid = 2
			}
			args := ""
			if k.hasLine {
				args = fmt.Sprintf(`"line":"0x%x"`, e.Line)
			}
			for j, v := range [3]int64{e.A, e.B, e.C} {
				if k.args[j] != "" {
					if args != "" {
						args += ","
					}
					args += fmt.Sprintf(`%q:%d`, k.args[j], v)
				}
			}
			emit(`{"name":%q,"cat":%q,"ph":"i","s":"t","ts":%d,"pid":%d,"tid":%d,"args":{%s}}`,
				k.name, e.Kind.class(), e.Cycle, e.Node, tid, args)
		}
	}

	for i := range samples {
		s := &samples[i]
		emit(`{"name":"cycle breakdown","ph":"C","ts":%d,"pid":%d,"args":{"busy":%d,"fencestall":%d,"otherstall":%d,"idle":%d}}`,
			s.Cycle, s.Core, s.Busy, s.FenceStall, s.OtherStall, s.Idle)
		emit(`{"name":"fences","ph":"C","ts":%d,"pid":%d,"args":{"strong":%d,"weak":%d,"bounces":%d,"recoveries":%d,"squashes":%d}}`,
			s.Cycle, s.Core, s.SFences, s.WFences, s.Bounces, s.Recoveries, s.Squashes)
		emit(`{"name":"instructions","ph":"C","ts":%d,"pid":%d,"args":{"retired":%d}}`,
			s.Cycle, s.Core, s.Retired)
	}

	bw.WriteString("\n]}\n")
	return bw.Flush()
}
