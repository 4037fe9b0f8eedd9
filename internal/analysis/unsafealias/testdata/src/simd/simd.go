// Corpus for the assembly-seam rule inside the seam: unexported
// //go:noescape stubs behind Go wrappers pass.
package simd

// Sum is the Go wrapper: it bounds the input before the stub reads it.
func Sum(v []float32, n int) float32 {
	return sum(v[:n])
}

//go:noescape
func sum(v []float32) float32

//go:noescape
func Scale(v []float32, k float32) // want "assembly stub Scale is exported"

func clear8(v *[8]float32) // want "assembly stub clear8 lacks //go:noescape"
