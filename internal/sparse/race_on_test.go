//go:build race

package sparse

// Under the race detector sync.Pool drops a share of Puts on purpose,
// so allocation pins do not hold.
const raceEnabled = true
