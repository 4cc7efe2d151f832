//go:build race

package rangeprop

// raceEnabled marks a -race build, which slows the oracle's walks about
// tenfold; the oracle tests then keep to their short subset.
const raceEnabled = true
