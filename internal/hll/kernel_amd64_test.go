//go:build amd64 && !race

package hll

// The bare SSE2 loops join the referee beside the kernels they back.
func init() {
	registerKernels = append(registerKernels, registerKernel{name: "sse2", merge: maxBytesSSE2, presence: presenceSSE2, maxVal: 255})
}
