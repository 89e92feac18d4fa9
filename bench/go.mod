module dsmtx/bench

go 1.24

require dsmtx v0.0.0

replace dsmtx => ../
