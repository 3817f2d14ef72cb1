module ldl/bench

go 1.22

require ldl v0.0.0

replace ldl => ../
