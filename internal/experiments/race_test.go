//go:build race

package experiments

func init() { raceEnabled = true }
