package asymfence

import "asymfence/internal/experiments"

// WorkloadMeasurement is one (application, design) run reduced to the
// quantities the paper plots; see the experiments package for details.
type WorkloadMeasurement = experiments.Measurement

// WorkloadGroups lists the workload groups a SimJob may name: "cilk"
// (the work-stealing CilkApps), "ustm" (the RSTM microbenchmarks) and
// "stamp" (the STAMP applications), paper Table 3.
var WorkloadGroups = experiments.Groups

// WorkloadApps returns the application names of one workload group in
// the figures' row order, nil for an unknown group.
func WorkloadApps(group string) []string { return experiments.Apps(group) }
