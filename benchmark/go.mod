module ksp/benchmark

go 1.22

require ksp v0.0.0

replace ksp => ../
