//go:build !race

package rangeprop

const raceEnabled = false
