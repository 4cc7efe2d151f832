//go:build race

package vm_test

// raceEnabled marks a -race build, under which sync.Pool drops items at
// random, so recycling cannot be measured.
const raceEnabled = true
