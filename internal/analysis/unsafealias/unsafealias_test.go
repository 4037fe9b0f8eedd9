package unsafealias_test

import (
	"testing"

	"snmatch/internal/analysis/analysistest"
	"snmatch/internal/analysis/unsafealias"
)

func TestUnsafeAlias(t *testing.T) {
	analysistest.Run(t, unsafealias.Analyzer, "testdata", "snapshot", "codec", "simd", "vecmath")
}
