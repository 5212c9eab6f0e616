module macro3d/bench

go 1.22

require macro3d v0.0.0

replace macro3d => ../
