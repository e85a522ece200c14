module addrkv/bench

go 1.22

require addrkv v0.0.0

replace addrkv => ../
