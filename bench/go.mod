module energydb/bench

go 1.22

require energydb v0.0.0

replace energydb => ../
