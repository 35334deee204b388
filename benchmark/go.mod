module pangea/benchmark

go 1.22

require pangea v0.0.0

replace pangea => ../
