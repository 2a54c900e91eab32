module github.com/hotindex/hot/benchmark

go 1.22

require github.com/hotindex/hot v0.0.0

replace github.com/hotindex/hot => ../
