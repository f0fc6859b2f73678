//go:build gps_noobs

package obs

// Enabled is false under the gps_noobs build tag: hot-path instrumentation
// guarded by it is compiled out, giving an uninstrumented baseline to
// measure the instrumented build against.
const Enabled = false
