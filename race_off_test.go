//go:build !race

package addrkv

const raceEnabled = false
