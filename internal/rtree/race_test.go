//go:build race

package rtree

func init() { raceEnabled = true }
