package pipeline

// BenchScenes exposes benchScenes to the external test package, which
// can import the snapshot codec without an import cycle.
var BenchScenes = benchScenes
