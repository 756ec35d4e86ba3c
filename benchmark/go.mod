module dropscope/benchmark

go 1.24

require dropscope v0.0.0

replace dropscope => ../
