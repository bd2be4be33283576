//go:build race

package bvtree

// raceBuild: release poisons each scratch page it takes back.
const raceBuild = true
