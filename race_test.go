//go:build race

package hot

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of Puts: a pooled scratch is then allocated afresh, so allocation counts
// of paths that borrow from a pool are not exact.
const raceEnabled = true
