module wimesh/benchmark

go 1.22

require wimesh v0.0.0

replace wimesh => ../
