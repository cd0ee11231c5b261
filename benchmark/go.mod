// The benchmark is a module of its own so that the repository's build,
// vet and test commands do not see it; the import path keeps the repro/
// prefix, which is what lets it import repro/internal/... .
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
