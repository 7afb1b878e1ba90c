// The benchmark is a module of its own, nested in the repository it
// measures: the replace directive points at the checkout around it, and
// the module path sits under smrseek/ so the benchmark may import
// smrseek/internal/... to time each layer's public functions.
module smrseek/bench

go 1.22

require smrseek v0.0.0

replace smrseek => ../
