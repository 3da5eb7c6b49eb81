//go:build race

package server

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation inflates allocation counts and makes
// sync.Pool randomly drop Puts — allocation budgets only hold without it.
const raceEnabled = true
