module serenade/benchmark

go 1.24

require serenade v0.0.0

replace serenade => ../
