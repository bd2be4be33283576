//go:build race

package bvtree

func init() { raceEnabled = true }
