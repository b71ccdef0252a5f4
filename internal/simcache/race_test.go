//go:build race

package simcache

func init() { raceEnabled = true }
