module shadowblock/benchmark

go 1.22

require shadowblock v0.0.0

replace shadowblock => ../
