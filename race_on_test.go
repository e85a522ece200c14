//go:build race

package addrkv

// raceEnabled reports whether the race detector is compiled in; the
// contract's simulation rows skip themselves under -race, where they
// would only run the same single-goroutine model several times slower.
const raceEnabled = true
