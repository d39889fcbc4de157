module burtree/bench

go 1.24

require burtree v0.0.0

replace burtree => ../
