module mpcquery/bench

go 1.22

require mpcquery v0.0.0

replace mpcquery => ../
