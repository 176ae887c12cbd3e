module tcb/bench

go 1.22

require tcb v0.0.0

replace tcb => ../
