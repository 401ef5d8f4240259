//go:build race

package multires

// raceEnabled reports whether the race detector is active; allocation
// accounting is unreliable under it, so alloc-count tests skip.
const raceEnabled = true
