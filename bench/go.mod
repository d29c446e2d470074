// The benchmark is a module of its own so that it builds from its own
// directory; the repro/ path prefix is what lets it import repro/internal/...
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
