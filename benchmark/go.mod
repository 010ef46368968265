module twine/benchmark

go 1.22

require twine v0.0.0

replace twine => ../
