module bvtree/benchmark

go 1.22

require bvtree v0.0.0

replace bvtree => ../
