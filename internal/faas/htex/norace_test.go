//go:build !race

package htex

const raceEnabled = false
