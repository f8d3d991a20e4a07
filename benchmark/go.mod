module dircache/benchmark

go 1.23

require dircache v0.0.0

replace dircache => ../
