module zerotune/benchmark

go 1.22

require zerotune v0.0.0

replace zerotune => ../
