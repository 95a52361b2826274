// The benchmark is a module of its own because the contract it runs
// under wants a compiled benchmark to bring its own build file (see
// README.md); the module path keeps the repro/ prefix so that it may
// import repro/internal/... .
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
