module github.com/opera-net/opera/bench

go 1.24

require github.com/opera-net/opera v0.0.0

replace github.com/opera-net/opera => ../
