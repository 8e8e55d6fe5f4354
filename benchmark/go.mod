module secmr/benchmark

go 1.22

require secmr v0.0.0

replace secmr => ../
