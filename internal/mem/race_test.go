//go:build race

package mem

// raceEnabled marks a -race build, under which sync.Pool drops items at
// random, so recycling cannot be required.
const raceEnabled = true
