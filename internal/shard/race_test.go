//go:build race

package shard

func init() { raceEnabled = true }
