// The benchmark is a module of its own so that it carries its own build file
// and the root module's `go build ./...` never has to know about it. It lives
// under the repro/ import path on purpose: that is what lets it drive the
// public entry points of repro/internal/... from outside the root module.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
