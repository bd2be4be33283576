//go:build race

package storage_test

func init() { raceEnabled = true }
