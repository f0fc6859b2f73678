//go:build !gps_noobs

package obs

// Enabled gates hot-path instrumentation. The gps_noobs build tag flips it
// to false, compiling the guarded call sites out entirely.
const Enabled = true
