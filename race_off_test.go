//go:build !race

package dropscope

// raceEnabled reports whether the race detector is compiled in. The
// allocation-ceiling test skips under it: instrumentation perturbs
// allocation counts.
const raceEnabled = false
