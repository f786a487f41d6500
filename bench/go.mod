module streamgraph/bench

go 1.24

require streamgraph v0.0.0

replace streamgraph => ../
