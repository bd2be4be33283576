//go:build !race

package bvtree

// raceBuild: release poisons nothing outside race builds.
const raceBuild = false
