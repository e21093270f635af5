// The repository benchmark is a module of its own so that the root
// module's `go build ./...` and `go test ./...` do not compile or run
// it; the import path stays under repro/ so it may use repro/internal.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
