//go:build !race

package mem

const raceEnabled = false
