// Corpus for the assembly-seam rule outside the seam: a package
// without a simd path segment may not declare assembly stubs at all.
package vecmath

// Dot is a Go wrapper, but the stub behind it sits in the wrong place.
func Dot(a, b []float32) float32 {
	return dot(a, b[:len(a)])
}

//go:noescape
func dot(a, b []float32) float32 // want "assembly stub dot outside a simd package"
