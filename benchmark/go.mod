module github.com/casl-sdsu/hart/benchmark

go 1.23

require github.com/casl-sdsu/hart v0.0.0

replace github.com/casl-sdsu/hart => ../
