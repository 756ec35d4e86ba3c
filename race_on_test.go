//go:build race

package dropscope

const raceEnabled = true
